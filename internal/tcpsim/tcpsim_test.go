package tcpsim

import (
	"math"
	"testing"

	"csi/internal/ivl"
	"csi/internal/netem"
	"csi/internal/packet"
	"csi/internal/sim"
)

type harness struct {
	eng  *sim.Engine
	conn *Conn
	up   *netem.Link
	down *netem.Link
	caps []packet.View
}

func newHarness(t *testing.T, downCfg netem.LinkConfig) *harness {
	t.Helper()
	h := &harness{eng: sim.New()}
	h.eng.SetEventLimit(5_000_000)
	upCfg := netem.LinkConfig{Trace: netem.Constant(50_000_000), Delay: 0.02}
	var conn *Conn
	h.up = netem.NewLink(h.eng, upCfg, func(p *packet.Packet) { p.Arrive(h.eng.Now()) })
	h.down = netem.NewLink(h.eng, downCfg, func(p *packet.Packet) { p.Arrive(h.eng.Now()) })
	conn = NewConn(h.eng, Config{ConnID: 1}, h.up, h.down)
	h.conn = conn
	h.down.SetTap(func(v packet.View, now float64) { h.caps = append(h.caps, v) })
	return h
}

func TestHandshakeAndTransfer(t *testing.T) {
	h := newHarness(t, netem.LinkConfig{Trace: netem.Constant(8_000_000), Delay: 0.02})
	var openAt, doneAt float64
	h.conn.Start(func(now float64) {
		openAt = now
		// Client sends a 400-byte request; server answers with 100 KB.
		h.conn.Client.Write(400, func(now float64) {
			h.conn.Server.Write(100_000, func(now float64) { doneAt = now })
		})
	})
	h.eng.Run()
	if openAt <= 0 {
		t.Fatal("connection never opened")
	}
	if doneAt <= openAt {
		t.Fatalf("transfer did not complete: open=%g done=%g", openAt, doneAt)
	}
	// 100 KB at 1 MB/s is 0.1 s serialization + handshake RTTs; allow a
	// generous but bounded window.
	if doneAt > 2.0 {
		t.Fatalf("transfer too slow: done=%g", doneAt)
	}
	if got := h.conn.Client.RcvNxt(); got != 100_000 {
		t.Fatalf("client received %d bytes, want 100000", got)
	}
}

func TestInOrderDeliveryUnderLoss(t *testing.T) {
	h := newHarness(t, netem.LinkConfig{
		Trace: netem.Constant(8_000_000), Delay: 0.02,
		LossProb: 0.03, Seed: 42, QueueCap: 1 << 20,
	})
	const size = 300_000
	var done float64
	h.conn.Start(func(now float64) {
		h.conn.Client.Write(400, func(now float64) {
			h.conn.Server.Write(size, func(now float64) { done = now })
		})
	})
	h.eng.Run()
	if done == 0 {
		t.Fatal("transfer never completed under loss")
	}
	if h.conn.Server.Retransmits == 0 {
		t.Fatal("expected retransmissions under 3% loss")
	}
	if got := h.conn.Client.RcvNxt(); got != size {
		t.Fatalf("receiver contiguous offset %d, want %d", got, size)
	}
}

func TestRetransmissionsReuseSeq(t *testing.T) {
	h := newHarness(t, netem.LinkConfig{
		Trace: netem.Constant(8_000_000), Delay: 0.02,
		LossProb: 0.05, Seed: 7, QueueCap: 1 << 20,
	})
	var done bool
	h.conn.Start(func(now float64) {
		h.conn.Client.Write(400, func(now float64) {
			h.conn.Server.Write(400_000, func(now float64) { done = true })
		})
	})
	h.eng.Run()
	if !done {
		t.Fatal("transfer incomplete")
	}
	// The tap (capture at the gateway, before radio loss) must see every
	// transmission. De-duplicating by SEQ ranges must recover the stream
	// length exactly — this is the invariant the HTTPS estimator relies on.
	var seen ivl.Set
	var raw, deduped int64
	for _, v := range h.caps {
		if v.TCPPayload == 0 {
			continue
		}
		raw += v.TCPPayload
		deduped += seen.Add(v.TCPSeq, v.TCPSeq+v.TCPPayload)
	}
	if raw <= 400_000 {
		t.Fatalf("raw captured bytes %d; expected duplicates from retransmissions", raw)
	}
	if deduped != 400_000 {
		t.Fatalf("deduped captured bytes = %d, want 400000", deduped)
	}
}

func TestCongestionWindowRespondsToDrops(t *testing.T) {
	// A tiny queue forces drop-tail losses; the transfer must still finish
	// and must record fast retransmits or timeouts.
	h := newHarness(t, netem.LinkConfig{
		Trace: netem.Constant(4_000_000), Delay: 0.03, QueueCap: 30_000,
	})
	var done bool
	h.conn.Start(func(now float64) {
		h.conn.Client.Write(400, func(now float64) {
			h.conn.Server.Write(1_000_000, func(now float64) { done = true })
		})
	})
	h.eng.Run()
	if !done {
		t.Fatal("transfer incomplete with small queue")
	}
	if h.conn.Server.FastRetx+h.conn.Server.Timeouts == 0 {
		t.Fatal("expected loss recovery events with a 30 KB queue")
	}
}

func TestMessageBoundaries(t *testing.T) {
	h := newHarness(t, netem.LinkConfig{Trace: netem.Constant(8_000_000), Delay: 0.01})
	var order []int
	h.conn.Start(func(now float64) {
		h.conn.Server.Write(10_000, func(now float64) { order = append(order, 1) })
		h.conn.Server.Write(20_000, func(now float64) { order = append(order, 2) })
		h.conn.Server.Write(5_000, func(now float64) { order = append(order, 3) })
	})
	h.eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("message callbacks order = %v, want [1 2 3]", order)
	}
}

func TestPureAcksHaveNoPayload(t *testing.T) {
	eng := sim.New()
	var upViews []packet.View
	up := netem.NewLink(eng, netem.LinkConfig{Trace: netem.Constant(50_000_000), Delay: 0.01},
		func(p *packet.Packet) { p.Arrive(eng.Now()) })
	down := netem.NewLink(eng, netem.LinkConfig{Trace: netem.Constant(8_000_000), Delay: 0.01},
		func(p *packet.Packet) { p.Arrive(eng.Now()) })
	up.SetTap(func(v packet.View, now float64) { upViews = append(upViews, v) })
	conn := NewConn(eng, Config{ConnID: 2}, up, down)
	conn.Start(func(now float64) {
		conn.Server.Write(100_000, nil)
	})
	eng.Run()
	acks := 0
	for _, v := range upViews {
		if v.TCPPayload == 0 && v.Size == packet.IPHeader+packet.TCPHeader {
			acks++
		}
	}
	if acks == 0 {
		t.Fatal("no pure ACKs observed on the uplink")
	}
}

func TestThroughputMatchesLinkRate(t *testing.T) {
	h := newHarness(t, netem.LinkConfig{Trace: netem.Constant(8_000_000), Delay: 0.02, QueueCap: 1 << 20})
	const size = 4_000_000
	var start, done float64
	h.conn.Start(func(now float64) {
		start = now
		h.conn.Server.Write(size, func(now float64) { done = now })
	})
	h.eng.Run()
	if done == 0 {
		t.Fatal("no completion")
	}
	rate := float64(size) * 8 / (done - start)
	// Should achieve most of the 8 Mbit/s link after slow start.
	if rate < 5_000_000 || rate > 8_100_000 {
		t.Fatalf("achieved %0.f bit/s on an 8 Mbit/s link", rate)
	}
}

// SACK-based recovery must tolerate mild reordering without spurious
// retransmission storms.
func TestReorderingToleranceTCP(t *testing.T) {
	eng := sim.New()
	up := netem.NewLink(eng, netem.LinkConfig{Trace: netem.Constant(50_000_000), Delay: 0.02},
		func(p *packet.Packet) { p.Arrive(eng.Now()) })
	down := netem.NewLink(eng, netem.LinkConfig{
		Trace: netem.Constant(8_000_000), Delay: 0.02, QueueCap: 1 << 20,
		ReorderProb: 0.05, Seed: 13,
	}, func(p *packet.Packet) { p.Arrive(eng.Now()) })
	conn := NewConn(eng, Config{ConnID: 4}, up, down)
	var done bool
	conn.Start(func(now float64) {
		conn.Server.Write(1_000_000, func(now float64) { done = true })
	})
	eng.Run()
	if !done {
		t.Fatal("transfer incomplete under reordering")
	}
	if down.Reordered == 0 {
		t.Fatal("no packets actually reordered")
	}
	// Some spurious SACK-hole retransmissions are expected but bounded.
	if conn.Server.Retransmits > 100 {
		t.Fatalf("reordering caused %d retransmissions", conn.Server.Retransmits)
	}
}

// wire delivers each packet after 20 ms, dropping the sends that drop
// selects (1-based) and delivering the others copies times.
type wire struct {
	eng    *sim.Engine
	sent   int
	drop   int
	copies int
}

func (w *wire) Send(p *packet.Packet) {
	w.sent++
	if w.sent == w.drop {
		return
	}
	for i := 0; i < w.copies; i++ {
		w.eng.Schedule(0.02, func() { p.Arrive(w.eng.Now()) })
	}
}

// TestHandshakeRecoversLostSyn pins SYN retransmission: a lost SYN or
// SYN-ACK is recovered by re-sending the SYN after the initial 1 s timeout,
// the connection opens exactly once, and a duplicate SYN-ACK is ignored.
func TestHandshakeRecoversLostSyn(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		upDrop, downDrop, dups int
		openAt                 float64
		upSent                 int // SYNs plus the handshake ACK
	}{
		{"lost SYN", 1, 0, 1, 1.04, 3},
		{"lost SYN-ACK", 0, 1, 1, 1.04, 3},
		{"duplicate SYN-ACK", 0, 0, 2, 0.04, 2},
	} {
		eng := sim.New()
		up := &wire{eng: eng, drop: tc.upDrop, copies: 1}
		down := &wire{eng: eng, drop: tc.downDrop, copies: tc.dups}
		conn := NewConn(eng, Config{ConnID: 1}, up, down)
		var opens []float64
		conn.Start(func(now float64) { opens = append(opens, now) })
		eng.Run()
		if len(opens) != 1 || math.Abs(opens[0]-tc.openAt) > 1e-9 {
			t.Errorf("%s: opened at %v, want once at %g", tc.name, opens, tc.openAt)
		}
		if up.sent != tc.upSent {
			t.Errorf("%s: client sent %d packets, want %d", tc.name, up.sent, tc.upSent)
		}
	}
}

// TestNoStoppedTimersQueued checks that a long lossy transfer leaves
// nothing in the event queue once the last ACK is in: every segment
// re-arms the RTO timer, and neither the re-arms nor the final stop may
// leave an entry behind. Pending counts every queued entry.
func TestNoStoppedTimersQueued(t *testing.T) {
	h := newHarness(t, netem.LinkConfig{
		Trace: netem.Constant(8_000_000), Delay: 0.02,
		LossProb: 0.02, Seed: 3, QueueCap: 1 << 20,
	})
	done := false
	h.conn.Start(func(now float64) {
		h.conn.Client.Write(400, func(now float64) {
			h.conn.Server.Write(2_000_000, func(now float64) { done = true })
		})
	})
	for !done && h.eng.Step() {
	}
	if !done {
		t.Fatal("transfer incomplete")
	}
	if h.conn.Server.Retransmits == 0 {
		t.Fatal("expected retransmissions under 2% loss")
	}
	// The final ACK reaches the server one uplink delay later; RTOs are
	// at least 200 ms, so a dead RTO entry would still be queued.
	h.eng.RunUntil(h.eng.Now() + 0.1)
	if h.conn.Server.rtoTimer.Pending() || h.conn.Client.rtoTimer.Pending() {
		t.Fatal("RTO timer still armed after the last ACK")
	}
	if n := h.eng.Pending(); n != 0 {
		t.Fatalf("%d entries left in the event queue after the transfer, want 0", n)
	}
}
