package core

import (
	"csi/internal/ivl"
	"csi/internal/packet"
)

// Monitor-gap pre-scan. A sniffer that drops packets under load leaves
// permanent holes in the captured stream: unlike link loss, nothing is ever
// retransmitted for the monitor's benefit, so the estimator would silently
// under-count chunk bytes and Property 1 (estimates over-estimate true
// sizes) would break. Each connection is scanned once up front: TCP holes
// show up as uncovered sequence ranges between observed segments, QUIC
// holes as missing packet numbers (each endpoint numbers every packet it
// sends from one contiguous space). The walkers then repair the estimate at
// the first packet after each hole, attributing the missing bytes to the
// chunk being downloaded at that moment, and record the repaired amount so
// downstream consumers can discount their confidence in those chunks.
//
// Only interior holes are repaired: bytes before the first observed packet
// (a mid-session capture start) belong to responses whose requests were
// never seen and cannot be attributed to any chunk.

// tcpGaps describes the monitor-drop structure of one TCP connection.
type tcpGaps struct {
	// downAt maps the start seq of each observed downlink run to the number
	// of payload bytes missing immediately before it.
	downAt map[int64]int64
	// appRatio scales missing TCP payload bytes into TLS application bytes
	// (record framing makes app bytes a near-constant fraction of payload).
	appRatio float64
	// upMissing is the total uplink payload bytes lost by the monitor.
	// Uplink app-data segments are requests, so holes here mean whole
	// requests may have been merged away.
	upMissing int64
}

func scanTCPGaps(pkts []packet.View) tcpGaps {
	var down, up ivl.Set
	var dLo, dHi int64 = -1, -1
	var uLo, uHi int64 = -1, -1
	var payload, app int64
	for i := range pkts {
		v := &pkts[i]
		if v.TCPPayload <= 0 {
			continue
		}
		lo, hi := v.TCPSeq, v.TCPSeq+v.TCPPayload
		if v.Dir == packet.Down {
			down.Add(lo, hi)
			if dLo < 0 || lo < dLo {
				dLo = lo
			}
			if hi > dHi {
				dHi = hi
			}
			if v.TLSAppBytes > 0 {
				payload += v.TCPPayload
				app += v.TLSAppBytes
			}
		} else {
			up.Add(lo, hi)
			if uLo < 0 || lo < uLo {
				uLo = lo
			}
			if hi > uHi {
				uHi = hi
			}
		}
	}
	g := tcpGaps{appRatio: 1}
	if payload > 0 && app > 0 {
		g.appRatio = float64(app) / float64(payload)
	}
	if dLo >= 0 {
		for _, h := range down.Gaps(dLo, dHi) {
			if g.downAt == nil {
				g.downAt = make(map[int64]int64)
			}
			g.downAt[h[1]] = h[1] - h[0]
		}
	}
	if uLo >= 0 {
		for _, h := range up.Gaps(uLo, uHi) {
			g.upMissing += h[1] - h[0]
		}
	}
	return g
}

// quicGaps describes the monitor-drop structure of one QUIC connection.
type quicGaps struct {
	// before maps a downlink packet number to the count of packet numbers
	// missing immediately before it.
	before map[int64]int64
	// meanData is the mean observed downlink short-header payload — the
	// best available proxy for what a lost packet carried.
	meanData float64
}

func scanQUICGaps(pkts []packet.View) quicGaps {
	var pns ivl.Set
	var lo, hi int64 = -1, -1
	var sum, n int64
	for i := range pkts {
		v := &pkts[i]
		if v.Dir != packet.Down {
			continue
		}
		pns.Add(v.QUICPN, v.QUICPN+1)
		if lo < 0 || v.QUICPN < lo {
			lo = v.QUICPN
		}
		if v.QUICPN > hi {
			hi = v.QUICPN
		}
		if !v.QUICLong {
			sum += v.QUICPayload
			n++
		}
	}
	g := quicGaps{}
	if n > 0 {
		g.meanData = float64(sum) / float64(n)
	}
	if lo >= 0 {
		for _, h := range pns.Gaps(lo, hi+1) {
			if g.before == nil {
				g.before = make(map[int64]int64)
			}
			g.before[h[1]] = h[1] - h[0]
		}
	}
	return g
}
