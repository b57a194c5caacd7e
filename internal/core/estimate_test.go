package core

import (
	"testing"

	"csi/internal/capture"
	"csi/internal/packet"
)

func mkTrace(views []packet.View) *capture.Trace {
	tr := capture.NewTrace()
	tap := tr.Tap()
	for _, v := range views {
		tap(v, v.Time)
	}
	return tr
}

func tcpUp(t float64, conn int, seq, payload, app int64) packet.View {
	return packet.View{Time: t, Dir: packet.Up, Proto: packet.TCP, ConnID: conn,
		TCPSeq: seq, TCPPayload: payload, TLSAppBytes: app}
}

func tcpDown(t float64, conn int, seq, payload, app int64) packet.View {
	return packet.View{Time: t, Dir: packet.Down, Proto: packet.TCP, ConnID: conn,
		TCPSeq: seq, TCPPayload: payload, TLSAppBytes: app}
}

func sni(t float64, conn int, host string) packet.View {
	return packet.View{Time: t, Dir: packet.Up, Proto: packet.TCP, ConnID: conn,
		TCPSeq: 0, TCPPayload: 300, TLSHSBytes: 280, SNI: host}
}

func TestEstimateHTTPSBasic(t *testing.T) {
	views := []packet.View{
		sni(0, 1, "media.example.com"),
		tcpUp(1.0, 1, 300, 400, 380),   // request 1
		tcpDown(1.1, 1, 0, 1400, 1380), // response bytes
		tcpDown(1.2, 1, 1400, 1400, 1390),
		tcpUp(2.0, 1, 700, 400, 380), // request 2
		tcpDown(2.1, 1, 2800, 900, 880),
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "media.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(est.Requests))
	}
	// 280 header bytes are discounted per response.
	if got := est.Requests[0].Est; got != 1380+1390-280 {
		t.Fatalf("req0 est = %d", got)
	}
	if got := est.Requests[1].Est; got != 880-280 {
		t.Fatalf("req1 est = %d", got)
	}
	if est.Requests[0].LastData != 1.2 {
		t.Fatalf("req0 lastData = %g", est.Requests[0].LastData)
	}
}

func TestEstimateHTTPSDedupsRetransmissions(t *testing.T) {
	views := []packet.View{
		sni(0, 1, "m.x"),
		tcpUp(1.0, 1, 300, 400, 380),
		tcpDown(1.1, 1, 0, 1400, 1380),
		tcpDown(1.2, 1, 0, 1400, 1380), // full retransmission
		tcpDown(1.3, 1, 1400, 1400, 1390),
		tcpDown(1.4, 1, 700, 1400, 1385), // partial overlap: only [1400,2100) fresh
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "m.x"})
	if err != nil {
		t.Fatal(err)
	}
	got := est.Requests[0].Est
	// 1380 + 1390 (fresh) + 0 (dup) + 1385*0 fresh? The partial packet
	// covers [700,2100): fresh part is empty after [0,2800) coverage.
	want := int64(1380+1390) - 280
	if got != want {
		t.Fatalf("deduped est = %d, want %d", got, want)
	}
}

func TestEstimateHTTPSDedupsUplinkRequests(t *testing.T) {
	views := []packet.View{
		sni(0, 1, "m.x"),
		tcpUp(1.0, 1, 300, 400, 380),
		tcpDown(1.1, 1, 0, 1400, 1380),
		tcpUp(1.5, 1, 300, 400, 380), // retransmitted request: same SEQ
		tcpDown(1.6, 1, 1400, 900, 880),
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "m.x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Requests) != 1 {
		t.Fatalf("requests = %d, want 1 (rtx request must be dropped)", len(est.Requests))
	}
}

func TestEstimateFiltersBySNI(t *testing.T) {
	views := []packet.View{
		sni(0, 1, "media.example.com"),
		sni(0, 2, "api.example.com"),
		tcpUp(1.0, 1, 300, 400, 380),
		tcpDown(1.1, 1, 0, 1400, 1380),
		tcpUp(1.0, 2, 300, 400, 380),
		tcpDown(1.1, 2, 0, 9000, 8900), // decoy traffic
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "media.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Requests) != 1 || est.Requests[0].Est != 1380-280 {
		t.Fatalf("decoy traffic leaked into estimation: %+v", est.Requests)
	}
	if _, err := Estimate(mkTrace(views), Params{MediaHost: "nosuch.host"}); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func quicUp(t float64, conn int, pn, payload int64) packet.View {
	return packet.View{Time: t, Dir: packet.Up, Proto: packet.UDP, ConnID: conn,
		QUICPN: pn, QUICPayload: payload}
}

func quicDown(t float64, conn int, pn, payload int64) packet.View {
	return packet.View{Time: t, Dir: packet.Down, Proto: packet.UDP, ConnID: conn,
		QUICPN: pn, QUICPayload: payload}
}

func quicSNI(t float64, conn int, host string) packet.View {
	return packet.View{Time: t, Dir: packet.Up, Proto: packet.UDP, ConnID: conn,
		QUICPN: 0, QUICPayload: 1200, QUICLong: true, SNI: host}
}

func TestEstimateQUICRequestThreshold(t *testing.T) {
	views := []packet.View{
		quicSNI(0, 1, "m.x"),
		quicUp(1.0, 1, 1, 400), // request (>80)
		quicDown(1.1, 1, 0, 1330),
		quicUp(1.15, 1, 2, 22), // ACK (<80): not a request
		quicDown(1.2, 1, 1, 900),
		quicUp(2.0, 1, 3, 420), // request 2
		quicDown(2.1, 1, 2, 600),
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "m.x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(est.Requests))
	}
	if got := est.Requests[0].Est; got != 1330+900-280 {
		t.Fatalf("req0 est = %d", got)
	}
}

func TestEstimateQUICPhantomFilter(t *testing.T) {
	views := []packet.View{
		quicSNI(0, 1, "m.x"),
		quicUp(1.0, 1, 1, 400),   // request
		quicDown(1.1, 1, 0, 500), // tiny bit of data
		quicUp(1.2, 1, 2, 400),   // rtx of the request (phantom)
		quicDown(1.3, 1, 1, 50_000),
	}
	p := Params{MediaHost: "m.x", MinChunkBytes: 10_000}
	est, err := Estimate(mkTrace(views), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Requests) != 1 {
		t.Fatalf("requests = %d, want 1 (phantom merged)", len(est.Requests))
	}
	if got := est.Requests[0].Est; got != 500+50_000-280 {
		t.Fatalf("merged est = %d", got)
	}
}

func TestEstimateMuxSplitPoints(t *testing.T) {
	views := []packet.View{
		quicSNI(0, 1, "m.x"),
		// SP2 at start: two simultaneous requests (video + audio).
		quicUp(1.000, 1, 1, 400),
		quicUp(1.001, 1, 2, 410),
		quicDown(1.1, 1, 0, 1330),
		quicDown(1.2, 1, 1, 1330),
		quicDown(1.3, 1, 2, 1330),
		// SP1: long idle gap (> 2 s).
		quicUp(8.0, 1, 3, 400),
		quicDown(8.1, 1, 3, 1330),
		quicDown(8.2, 1, 4, 900),
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "m.x", Mux: true})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Mux || len(est.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (SP1 split)", len(est.Groups))
	}
	g0, g1 := est.Groups[0], est.Groups[1]
	if len(g0.ReqTimes) != 2 || len(g1.ReqTimes) != 1 {
		t.Fatalf("group request counts = %d,%d", len(g0.ReqTimes), len(g1.ReqTimes))
	}
	if g0.Est != 3*1330-2*280 {
		t.Fatalf("g0 est = %d", g0.Est)
	}
	if g1.Est != 1330+900-280 {
		t.Fatalf("g1 est = %d", g1.Est)
	}
}

func TestEstimateMuxRequiresQUIC(t *testing.T) {
	views := []packet.View{
		sni(0, 1, "m.x"),
		tcpUp(1.0, 1, 300, 400, 380),
		tcpDown(1.1, 1, 0, 1400, 1380),
	}
	if _, err := Estimate(mkTrace(views), Params{MediaHost: "m.x", Mux: true}); err == nil {
		t.Fatal("Mux over TCP accepted")
	}
}

func TestEstimateExcludesHandshake(t *testing.T) {
	views := []packet.View{
		quicSNI(0, 1, "m.x"),
		// Long-header server flight: must not count.
		{Time: 0.05, Dir: packet.Down, Proto: packet.UDP, ConnID: 1, QUICPN: 0, QUICPayload: 1200, QUICLong: true},
		quicUp(1.0, 1, 1, 400),
		quicDown(1.1, 1, 1, 1000),
	}
	est, err := Estimate(mkTrace(views), Params{MediaHost: "m.x"})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Requests[0].Est; got != 1000-280 {
		t.Fatalf("handshake bytes leaked into estimate: %d", got)
	}
}

// A long startup ramp with no idle gaps must be subdivided at its widest
// internal downlink gaps so the per-group search stays tractable.
func TestEstimateMuxSubdividesOversizedGroups(t *testing.T) {
	var views []packet.View
	views = append(views, quicSNI(0, 1, "m.x"))
	ts := 1.0
	pn := int64(1)
	dpn := int64(0)
	// 48 requests, three times the group cap, with continuous downloads;
	// gaps of 0.3s between bursts (below the 2s SP1 threshold), with one
	// wider 1.2s gap in the middle.
	for r := 0; r < 48; r++ {
		views = append(views, quicUp(ts, 1, pn, 400))
		pn++
		for k := 0; k < 3; k++ {
			ts += 0.05
			views = append(views, quicDown(ts, 1, dpn, 1330))
			dpn++
		}
		if r == 23 {
			ts += 1.2
		} else {
			ts += 0.3
		}
	}
	p := Params{MediaHost: "m.x", Mux: true}
	est, err := Estimate(mkTrace(views), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Groups) < 2 {
		t.Fatalf("oversized group not subdivided: %d groups", len(est.Groups))
	}
	totalReqs := 0
	for gi, g := range est.Groups {
		totalReqs += len(g.ReqTimes)
		if len(g.ReqTimes) > maxGroupRequests {
			t.Errorf("group %d still has %d requests (cap %d)", gi, len(g.ReqTimes), maxGroupRequests)
		}
	}
	if totalReqs != 48 {
		t.Fatalf("requests lost in subdivision: %d", totalReqs)
	}
	// Total estimated bytes must be conserved (modulo the per-request
	// header discount).
	var sum int64
	for _, g := range est.Groups {
		sum += g.Est
	}
	want := int64(48*3*1330) - 48*280
	if sum != want {
		t.Fatalf("bytes not conserved: %d, want %d", sum, want)
	}
}
