package core

import (
	"csi/internal/ivl"
	"csi/internal/packet"
)

// Monitor-gap scan. A sniffer that drops packets under load leaves
// permanent holes in the captured stream: unlike link loss, nothing is ever
// retransmitted for the monitor's benefit, so the estimator would silently
// under-count chunk bytes and Property 1 (estimates over-estimate true
// sizes) would break. Each connection's coverage is accumulated as its
// packets are routed (Step1.scan): TCP holes show up as uncovered sequence
// ranges between observed segments, QUIC holes as missing packet numbers
// (each endpoint numbers every packet it sends from one contiguous space).
// The walkers then repair the estimate at the first packet after each hole,
// attributing the missing bytes to the chunk being downloaded at that
// moment, and record the repaired amount so downstream consumers can
// discount their confidence in those chunks.
//
// Only interior holes are repaired: bytes before the first observed packet
// (a mid-session capture start) belong to responses whose requests were
// never seen and cannot be attributed to any chunk.
//
// Both scans are unions and sums over the packets routed so far, so they do
// not depend on packet order and grow by adding packets.

// tcpGaps describes the monitor-drop structure of one TCP connection.
type tcpGaps struct {
	// down is the downlink payload coverage; a hole ending at a covered
	// run's start is the number of bytes missing before it.
	down ivl.Set
	// payload and app sum the TCP payload and TLS application bytes of
	// downlink app-data packets. Their ratio scales missing TCP payload
	// bytes into TLS application bytes (record framing makes app bytes a
	// near-constant fraction of payload).
	payload, app int64
	// up is the uplink payload coverage. Uplink app-data segments are
	// requests, so holes here mean whole requests may have been merged away.
	up ivl.Set
}

func (g *tcpGaps) add(v *packet.View) {
	if v.TCPPayload <= 0 {
		return
	}
	lo, hi := v.TCPSeq, v.TCPSeq+v.TCPPayload
	if v.Dir == packet.Down {
		g.down.Add(lo, hi)
		if v.TLSAppBytes > 0 {
			g.payload += v.TCPPayload
			g.app += v.TLSAppBytes
		}
		return
	}
	g.up.Add(lo, hi)
}

// appRatio is the observed TLS-application share of downlink payload, 1
// when nothing has been observed yet.
func (g *tcpGaps) appRatio() float64 {
	if g.payload > 0 && g.app > 0 {
		return float64(g.app) / float64(g.payload)
	}
	return 1
}

// upMissing is the total uplink payload bytes lost by the monitor between
// the first and last uplink bytes observed.
func (g *tcpGaps) upMissing() int64 {
	lo, hi := g.up.Extent()
	return hi - lo - g.up.Total()
}

// quicGaps describes the monitor-drop structure of one QUIC connection.
type quicGaps struct {
	// pns is the set of observed downlink packet numbers.
	pns ivl.Set
	// sum and n total the observed downlink short-header payloads; their
	// mean is the best available proxy for what a lost packet carried.
	sum, n int64
}

func (g *quicGaps) add(v *packet.View) {
	if v.Dir != packet.Down {
		return
	}
	g.pns.Add(v.QUICPN, v.QUICPN+1)
	if !v.QUICLong {
		g.sum += v.QUICPayload
		g.n++
	}
}

func (g *quicGaps) meanData() float64 {
	if g.n > 0 {
		return float64(g.sum) / float64(g.n)
	}
	return 0
}

// repair scales a count of missing units (TCP payload bytes, QUIC packets)
// into reconstructed estimate bytes.
func repair(miss int64, per float64) int64 {
	return int64(float64(miss)*per + 0.5)
}
