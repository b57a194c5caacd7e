package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/packet"
)

// Differential tests of the carried Step 1 state: a trace grows by random
// steps, and after every step the carried Step1's Estimation must equal a
// fresh Estimate of the same prefix. The generators produce the shapes the
// restart rules exist for: monitor holes that a later packet fills,
// retransmits that partially overlap, reordering, duplicates, multi-packet
// requests, cross traffic, late SNI and a protocol vote that flips.

// step1Checker grows one trace and compares every solve with a fresh one.
type step1Checker struct {
	t     testing.TB
	tr    *capture.Trace
	tap   func(packet.View, float64)
	st    *Step1
	views []packet.View
}

func newStep1Checker(t testing.TB) *step1Checker {
	tr := capture.NewTrace()
	return &step1Checker{t: t, tr: tr, tap: tr.Tap(), st: NewStep1()}
}

// grow taps vs, then checks the carried solve against a fresh one.
func (c *step1Checker) grow(p Params, vs ...packet.View) {
	c.t.Helper()
	for _, v := range vs {
		c.tap(v, v.Time)
	}
	c.views = append(c.views, vs...)
	got, gotErr := c.st.Estimate(c.tr, p)
	want, wantErr := Estimate(mkTrace(c.views), p)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		c.t.Fatalf("after %d packets (MinChunkBytes %d): carried Step 1 diverged from a fresh Estimate\ncarried: %+v (err %v)\nfresh:   %+v (err %v)",
			len(c.views), p.MinChunkBytes, got, gotErr, want, wantErr)
	}
}

// genSession builds one randomized session's packets, time-ordered.
type genSession struct {
	rng   *rand.Rand
	views []packet.View
}

// conn appends one connection's packets: seq/pn spaces, requests, responses
// and the impairments. kind: "tcp", "quic"; cross makes every response
// sub-chunk sized. start/gap place its packets in time.
func (g *genSession) conn(kind string, id int, host string, cross, lateSNI bool, start, span float64) {
	rng := g.rng
	var vs []packet.View
	nreq := 2 + rng.Intn(6)
	respSize := func() int64 {
		if cross {
			return int64(200 + rng.Intn(1500))
		}
		return int64(3000 + rng.Intn(40000))
	}
	if kind == "tcp" {
		var up, down int64
		hs := packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: id, Size: 352, TCPSeq: up, TCPPayload: 300, SNI: host}
		up += 300
		vs = append(vs, hs, packet.View{Dir: packet.Down, Proto: packet.TCP, ConnID: id, Size: 1500, TCPSeq: down, TCPPayload: 1448, TLSHSBytes: 1443})
		down += 1448
		for r := 0; r < nreq; r++ {
			for k := 1 + rng.Intn(3); k > 0; k-- { // multi-packet requests
				pay := int64(150 + rng.Intn(500))
				vs = append(vs, packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: id, Size: pay + 52, TCPSeq: up, TCPPayload: pay, TLSAppBytes: pay - 5})
				up += pay
			}
			for left := respSize(); left > 0; {
				pay := min(left, int64(1448))
				if rng.Intn(6) == 0 {
					pay = min(left, int64(1+rng.Intn(1448)))
				}
				app := pay - 5
				if rng.Intn(4) == 0 {
					app = pay / int64(1+rng.Intn(4)) // skews appRatio
				}
				if app <= 0 {
					app = 1
				}
				vs = append(vs, packet.View{Dir: packet.Down, Proto: packet.TCP, ConnID: id, Size: pay + 52, TCPSeq: down, TCPPayload: pay, TLSAppBytes: app})
				down += pay
				left -= pay
				if rng.Intn(5) == 0 {
					vs = append(vs, packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: id, Size: 52, TCPSeq: up}) // pure ACK
				}
			}
		}
	} else {
		var upPN, downPN int64
		vs = append(vs, packet.View{Dir: packet.Up, Proto: packet.UDP, ConnID: id, Size: 1250, QUICPN: upPN, QUICPayload: 1200, QUICLong: true, SNI: host})
		upPN++
		for k := 0; k < 3; k++ {
			vs = append(vs, packet.View{Dir: packet.Down, Proto: packet.UDP, ConnID: id, Size: 1250, QUICPN: downPN, QUICPayload: 1200, QUICLong: true})
			downPN++
		}
		// A handshake packet the monitor sees last fills a hole that a
		// repair already read, without changing the mean payload.
		var lateHS []packet.View
		if rng.Intn(3) == 0 {
			lateHS = append(lateHS, vs[len(vs)-1])
			vs = vs[:len(vs)-1]
		}
		for r := 0; r < nreq; r++ {
			pay := int64(100 + rng.Intn(300))
			vs = append(vs, packet.View{Dir: packet.Up, Proto: packet.UDP, ConnID: id, Size: pay + 41, QUICPN: upPN, QUICPayload: pay})
			upPN++
			for left := respSize(); left > 0; {
				pay := min(left, int64(1100+rng.Intn(230)))
				vs = append(vs, packet.View{Dir: packet.Down, Proto: packet.UDP, ConnID: id, Size: pay + 41, QUICPN: downPN, QUICPayload: pay})
				downPN++
				left -= pay
				switch rng.Intn(8) {
				case 0: // ACK
					vs = append(vs, packet.View{Dir: packet.Up, Proto: packet.UDP, ConnID: id, Size: 80, QUICPN: upPN, QUICPayload: int64(20 + rng.Intn(50))})
					upPN++
				case 1: // retransmitted request: a new packet number (phantom)
					vs = append(vs, packet.View{Dir: packet.Up, Proto: packet.UDP, ConnID: id, Size: 300, QUICPN: upPN, QUICPayload: int64(100 + rng.Intn(300))})
					upPN++
				}
			}
		}
		vs = append(vs, lateHS...)
	}
	vs = g.impair(vs)
	if lateSNI {
		// The SNI rides a later packet: early prefixes cannot attribute
		// the connection by name.
		vs[0].SNI = ""
		vs[min(len(vs)-1, 3+rng.Intn(20))].SNI = host
	}
	t := start
	for i := range vs {
		t += span / float64(len(vs)) * (0.2 + 1.6*rng.Float64())
		vs[i].Time = t
	}
	g.views = append(g.views, vs...)
}

// impair applies monitor drops (some filled later), duplicates, reordering
// and partially overlapping retransmits to one connection's packets.
func (g *genSession) impair(vs []packet.View) []packet.View {
	rng := g.rng
	var out, late []packet.View
	var lateAt []int
	for i, v := range vs {
		if i < 2 {
			out = append(out, v)
			continue
		}
		switch x := rng.Intn(40); {
		case x == 0: // monitor hole, never filled
			continue
		case x == 1 || x == 2: // hole, filled by a later arrival
			late = append(late, v)
			lateAt = append(lateAt, len(out)+1+rng.Intn(60))
			continue
		case x == 3: // monitor duplicate
			out = append(out, v, v)
			continue
		case x == 4 && v.Proto == packet.TCP && v.TCPPayload > 10: // partial overlap
			w := v
			d := 1 + rng.Int63n(v.TCPPayload/2)
			w.TCPSeq -= d
			if w.TCPSeq < 0 {
				w.TCPSeq = 0
			}
			w.TCPPayload = v.TCPPayload - d/2
			late = append(late, w)
			lateAt = append(lateAt, len(out)+1+rng.Intn(20))
		case x == 5 && len(out) > 2: // reorder with the previous packet
			out = append(out, out[len(out)-1])
			out[len(out)-2] = v
			continue
		}
		out = append(out, v)
	}
	// Insert the late packets at their positions (clamped to the end).
	order := make([]int, len(late))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lateAt[order[a]] < lateAt[order[b]] })
	var res []packet.View
	j := 0
	for i, v := range out {
		for j < len(order) && lateAt[order[j]] <= i {
			res = append(res, late[order[j]])
			j++
		}
		res = append(res, v)
	}
	for ; j < len(order); j++ {
		res = append(res, late[order[j]])
	}
	return res
}

func (g *genSession) sorted() []packet.View {
	sort.SliceStable(g.views, func(a, b int) bool { return g.views[a].Time < g.views[b].Time })
	return g.views
}

// checkGrowth grows a trace over views by random steps and checks every
// solve. With flipMinChunk, MinChunkBytes changes between some solves.
func checkGrowth(t *testing.T, rng *rand.Rand, views []packet.View, p Params, flipMinChunk bool) {
	t.Helper()
	c := newStep1Checker(t)
	for i := 0; i < len(views); {
		n := 1 + rng.Intn(40)
		if rng.Intn(4) == 0 {
			n = 1
		}
		if i < len(views)-1 {
			n = min(n, len(views)-1-i) // the last packet is a step of its own
		} else {
			n = 1
		}
		if flipMinChunk && rng.Intn(6) == 0 {
			if p.MinChunkBytes == 0 {
				p.MinChunkBytes = 4000
			} else {
				p.MinChunkBytes = 0
			}
		}
		c.grow(p, views[i:i+n]...)
		i += n
	}
}

func TestStep1MatchesFreshEstimate(t *testing.T) {
	shapes := []struct {
		name  string
		build func(g *genSession)
		mux   bool
	}{
		{"tcp", func(g *genSession) { g.conn("tcp", 1, "m.x", false, false, 0, 60) }, false},
		{"quic", func(g *genSession) { g.conn("quic", 1, "m.x", false, false, 0, 60) }, false},
		{"tcp+cross", func(g *genSession) {
			g.conn("tcp", 1, "m.x", false, false, 0, 60)
			g.conn("tcp", 2, "m.x", true, false, 5, 40)
			g.conn("tcp", 3, "other.host", false, false, 0, 60)
		}, false},
		{"quic+cross", func(g *genSession) {
			g.conn("quic", 1, "m.x", false, false, 0, 60)
			g.conn("tcp", 2, "m.x", true, false, 5, 40)
		}, false},
		{"late-sni", func(g *genSession) {
			g.conn("tcp", 1, "m.x", false, true, 0, 60)
			g.conn("tcp", 2, "m.x", true, true, 1, 30)
		}, false},
		{"vote-flip", func(g *genSession) {
			// TCP carries the early bytes, QUIC overtakes it later.
			g.conn("tcp", 1, "m.x", false, false, 0, 20)
			g.conn("quic", 2, "m.x", false, false, 15, 60)
		}, false},
		{"mux", func(g *genSession) {
			g.conn("quic", 1, "m.x", false, false, 0, 60)
			g.conn("quic", 2, "m.x", true, false, 3, 30)
		}, true},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := &genSession{rng: rng}
				sh.build(g)
				p := Params{MediaHost: "m.x", Mux: sh.mux, Degrade: seed%2 == 0}
				if seed%3 != 0 {
					p.MinChunkBytes = 4000
				}
				checkGrowth(t, rng, g.sorted(), p, seed%3 == 1)
			}
		})
	}
}

// TestStep1RatioDependentContinuation covers the one TCP decision that
// reads appRatio during the walk: a request whose bytes so far are repairs
// only. A 1-byte hole repaired at ratio < 0.5 rounds to 0, so the next
// uplink packet continues that request; once later packets lift the ratio
// above 0.5 the repair rounds to 1 and the same packet opens a new request.
func TestStep1RatioDependentContinuation(t *testing.T) {
	p := Params{MediaHost: "m.x"}
	c := newStep1Checker(t)
	c.grow(p,
		sni(0, 1, "m.x"),
		tcpUp(1.0, 1, 300, 400, 395),
		tcpDown(1.1, 1, 0, 1000, 300), // ratio 0.3
		// [1000,1001) never seen; this packet's fresh byte is its last,
		// worth 0 app bytes, while [1001,1999) was seen earlier below.
		tcpDown(1.2, 1, 1001, 998, 290),
		tcpUp(2.0, 1, 700, 300, 295), // second request
	)
	c.grow(p,
		tcpDown(2.1, 1, 1001, 999, 10), // retransmit: 1 fresh byte, 0 app
		tcpUp(2.5, 1, 1000, 300, 295),  // continuation test reads a repair-only request
	)
	c.grow(p, tcpDown(3.0, 1, 2000, 1000, 995)) // lifts appRatio above 0.5
	c.grow(p, tcpDown(3.1, 1, 3000, 1000, 995))
}

// TestStep1MeanDependentPhantom covers the QUIC decision that reads the
// mean payload during the walk: the phantom filter on a response whose
// observed bytes are below MinChunkBytes but whose repaired estimate is not.
// A later small packet lowers the mean, the repaired estimate drops below
// the limit, and the uplink packet that opened a second request becomes a
// phantom. Packets that move the mean without flipping the verdict must
// not restart the walk.
func TestStep1MeanDependentPhantom(t *testing.T) {
	p := Params{MediaHost: "m.x", MinChunkBytes: 4000}
	c := newStep1Checker(t)
	c.grow(p,
		quicSNI(0, 1, "m.x"),
		quicUp(1.0, 1, 1, 200),
		quicDown(1.1, 1, 1, 1000),
		// Packet numbers 2 and 3 never seen: 2 x mean 1000 repaired here.
		quicDown(1.2, 1, 4, 1000),
		quicUp(1.3, 1, 2, 200), // estimate 4000: not below, a new request
	)
	c.grow(p, quicDown(1.4, 1, 5, 1000)) // mean unchanged
	c.grow(p, quicDown(1.5, 1, 6, 1300)) // mean 1075: verdict holds
	if c.st.restarts != 0 {
		t.Fatalf("%d restarts while the phantom verdict held", c.st.restarts)
	}
	c.grow(p, quicDown(1.6, 1, 7, 10), quicDown(1.7, 1, 8, 10)) // mean 722: 3444 < 4000
	if c.st.restarts != 1 {
		t.Fatalf("%d restarts after the phantom verdict flipped, want 1", c.st.restarts)
	}
	c.grow(p, quicDown(1.8, 1, 9, 1200))
}

// TestStep1FallbackByVolume grows a capture whose handshakes were all
// missed, so a degraded solve selects connections by downlink volume: the
// carried per-connection byte totals must select what a full count of the
// prefix selects, including connection 0 and a big foreign-SNI connection.
func TestStep1FallbackByVolume(t *testing.T) {
	p := Params{MediaHost: "m.x", Degrade: true}
	rng := rand.New(rand.NewSource(3))
	var views []packet.View
	views = append(views, packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: 5, TCPPayload: 300, SNI: "tracker.y"})
	seq := map[int]int64{}
	ts := 0.0
	for i := 0; i < 1500; i++ {
		ts += 0.01
		id := []int{0, 1, 1, 1, 2, 3, 5, 5}[rng.Intn(8)]
		if rng.Intn(30) == 0 {
			views = append(views, tcpUp(ts, id, 1<<30+int64(i)*400, 400, 395))
			continue
		}
		pay := int64(1448)
		views = append(views, packet.View{Time: ts, Dir: packet.Down, Proto: packet.TCP, ConnID: id,
			Size: pay + 52, TCPSeq: seq[id], TCPPayload: pay, TLSAppBytes: pay - 5})
		seq[id] += pay
	}
	c := newStep1Checker(t)
	for i := 0; i < len(views); {
		n := min(1+rng.Intn(120), len(views)-i)
		c.grow(p, views[i:i+n]...)
		i += n
		down := map[int]int64{}
		for _, v := range c.views {
			if v.Dir == packet.Down {
				down[v.ConnID] += v.Size
			}
		}
		want := c.tr.FallbackConnIDs(down, p.MediaHost)
		if got := c.tr.FallbackConnIDs(c.st.downBytes(), p.MediaHost); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d packets: carried volumes select %v, a full count %v", len(c.views), got, want)
		}
	}
	if got := c.tr.FallbackConnIDs(c.st.downBytes(), p.MediaHost); len(got) == 0 {
		t.Fatal("no connection reached the volume floor: the test selects nothing")
	}
}

func FuzzIncrementalEstimate(f *testing.F) {
	f.Add([]byte{0x13, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0x02, 0x81, 0, 4, 8, 200, 0x40, 0x80, 0, 4, 8, 200, 0x42, 0x05, 0x22, 0x10, 0x11})
	f.Add([]byte{0x21, 0x1b, 0, 0, 80, 70, 0x19, 3, 0, 90, 90, 0x09, 1, 0, 90, 90, 0x0b, 0x07, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 4000 {
			return
		}
		p := Params{MediaHost: "m.x", Degrade: data[0]&1 != 0, Mux: data[0]&2 != 0}
		if data[0]&4 != 0 {
			p.MinChunkBytes = int64(data[0]) * 16
		}
		// Each packet is 5 bytes: flags, seq/pn, payload, app, split.
		//   flags bit 0-1 conn, bit 2 down, bit 3 udp, bit 4 long header,
		//   bit 5 SNI, bit 6 solve after this packet.
		c := newStep1Checker(t)
		var pending []packet.View
		for i := 1; i+5 <= len(data); i += 5 {
			fl := data[i]
			v := packet.View{Time: float64(i), ConnID: int(fl & 3), Size: int64(data[i+2]) * 8}
			if fl&4 != 0 {
				v.Dir = packet.Down
			}
			if fl&8 != 0 {
				v.Proto = packet.UDP
				v.QUICPN = int64(data[i+1])
				v.QUICPayload = int64(data[i+2]) * 8
				v.QUICLong = fl&16 != 0
			} else {
				v.TCPSeq = int64(data[i+1]) * 64
				v.TCPPayload = int64(data[i+2]) * 8
				v.TLSAppBytes = int64(data[i+3]) * 8
			}
			if fl&32 != 0 {
				v.SNI = "m.x"
			}
			pending = append(pending, v)
			if fl&64 != 0 || data[i+4]&1 != 0 {
				c.grow(p, pending...)
				pending = nil
			}
		}
		c.grow(p, pending...)
	})
}

// TestConcurrentSolvesShareVideoIndex runs solves of one manifest in
// parallel (under -race in the gate): they share the manifest's lazily
// built video index and agree with each other.
func TestConcurrentSolvesShareVideoIndex(t *testing.T) {
	man := tinyManifest(3, 3, 20, false)
	views := []packet.View{sni(0, 1, "m.x")}
	var up, down int64 = 300, 0
	for i := 0; i < 6; i++ {
		ts := float64(i + 1)
		views = append(views, tcpUp(ts, 1, up, 400, 395))
		up += 400
		for left := man.Tracks[0].Sizes[i] + 280; left > 0; {
			app := min(left, 1400)
			views = append(views, tcpDown(ts+0.1, 1, down, app, app))
			down += app
			left -= app
		}
	}
	infs := make([]*Inference, 4)
	errs := make([]error, len(infs))
	var wg sync.WaitGroup
	for i := range infs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infs[i], errs[i] = Infer(man, mkTrace(views), Params{MediaHost: "m.x"})
		}(i)
	}
	wg.Wait()
	for i := range infs {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if infs[i].SequenceCount < 1 || !reflect.DeepEqual(infs[i].Requests, infs[0].Requests) ||
			!reflect.DeepEqual(infs[i].Best, infs[0].Best) {
			t.Fatalf("solve %d disagrees: %+v vs %+v", i, infs[i], infs[0])
		}
	}
	if !reflect.DeepEqual(man.VideoIndex(), media.NewSizeIndex(man, media.Video)) {
		t.Fatal("shared video index differs from NewSizeIndex")
	}
}
