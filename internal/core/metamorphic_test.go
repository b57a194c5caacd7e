package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/packet"
)

// TestSQGroupsIgnoreUnrelatedConnection is a metamorphic test of Step 1 on
// the SQ path: interleaving a connection that does not carry the media SNI
// into a capture — QUIC with packet numbers overlapping the media
// connection's, or TCP; without an SNI or with another host's — leaves the
// Estimation, traffic groups included, exactly as it was.
func TestSQGroupsIgnoreUnrelatedConnection(t *testing.T) {
	man, res := sqFixture(t, 5)
	pkts := res.Run.Trace.Packets
	p := core.Params{MediaHost: man.Host, Mux: true}
	want, err := core.Estimate(retap(pkts), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) < 2 {
		t.Fatalf("fixture yields %d traffic groups; want several", len(want.Groups))
	}
	for _, tc := range []struct {
		name  string
		proto packet.Proto
		sni   string
	}{
		{"quic-no-sni", packet.UDP, ""},
		{"quic-other-host", packet.UDP, "cdn.unrelated.example.net"},
		{"tcp-other-host", packet.TCP, "api.unrelated.example.net"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mixed := interleaveUnrelated(pkts, tc.proto, tc.sni, 1000)
			got, err := core.Estimate(retap(mixed), p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("estimation changed by an unrelated connection:\ngot  %d groups %+v\nwant %d groups %+v",
					len(got.Groups), got.Warnings, len(want.Groups), want.Warnings)
			}
		})
	}
}

// retap builds a trace by tapping pkts in order, as the capture does.
func retap(pkts []packet.View) *capture.Trace {
	tr := capture.NewTrace()
	tap := tr.Tap()
	for _, v := range pkts {
		tap(v, v.Time)
	}
	return tr
}

// interleaveUnrelated returns pkts with the packets of one more connection,
// id, mixed in at random positions (timestamps kept non-decreasing), a few
// of them before the first media packet. Its first packet carries sni when
// sni is set. Uplink packets are large enough to pass for requests, and
// QUIC packet numbers restart from 0 in each direction, as the media
// connection's do.
func interleaveUnrelated(pkts []packet.View, proto packet.Proto, sni string, id int) []packet.View {
	rng := rand.New(rand.NewSource(int64(id)))
	var upPN, downPN, upSeq, downSeq int64
	next := func(at float64) packet.View {
		v := packet.View{Time: at, Proto: proto, ConnID: id, Dir: packet.Down}
		if rng.Intn(3) == 0 {
			v.Dir = packet.Up
		}
		payload := int64(1200)
		if v.Dir == packet.Up {
			payload = int64(150 + rng.Intn(300))
		}
		switch proto {
		case packet.UDP:
			v.QUICPayload, v.Size = payload, payload+40
			if v.Dir == packet.Up {
				v.QUICPN, upPN = upPN, upPN+1
			} else {
				v.QUICPN, downPN = downPN, downPN+1
			}
		case packet.TCP:
			v.TCPPayload, v.TLSAppBytes, v.Size = payload, payload-5, payload+52
			if v.Dir == packet.Up {
				v.TCPSeq, upSeq = upSeq, upSeq+payload
			} else {
				v.TCPSeq, downSeq = downSeq, downSeq+payload
			}
		}
		return v
	}
	out := make([]packet.View, 0, len(pkts)+len(pkts)/4+8)
	for range 5 {
		out = append(out, next(0))
	}
	out[0].SNI = sni
	for _, v := range pkts {
		out = append(out, v)
		if rng.Intn(4) == 0 {
			out = append(out, next(v.Time))
		}
	}
	return out
}
