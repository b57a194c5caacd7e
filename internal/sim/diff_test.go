package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the reference kernel the Engine replaced: a container/heap
// queue where cancelling only clears the callback and the dead entry stays
// queued until it reaches the top, and a timer is re-armed by cancelling
// its event and scheduling a fresh one.
type refEngine struct {
	now        float64
	seq, fired int64
	pq         refHeap
}

type refEvent struct {
	at  float64
	seq int64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func (r *refEngine) at(t float64, fn func()) *refEvent {
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	heap.Push(&r.pq, ev)
	return ev
}

func (r *refEngine) step() bool {
	for r.pq.Len() > 0 {
		ev := heap.Pop(&r.pq).(*refEvent)
		if ev.fn == nil {
			continue
		}
		r.now = ev.at
		fn := ev.fn
		ev.fn = nil
		r.fired++
		fn()
		return true
	}
	return false
}

func (r *refEngine) runUntil(t float64) {
	for {
		for r.pq.Len() > 0 && r.pq[0].fn == nil {
			heap.Pop(&r.pq)
		}
		if r.pq.Len() == 0 || r.pq[0].at > t {
			break
		}
		r.step()
	}
	if t > r.now {
		r.now = t
	}
}

type refTimer struct {
	r  *refEngine
	ev *refEvent
	fn func()
}

func (t *refTimer) reset(delay float64) {
	if t.ev != nil {
		t.ev.fn = nil
	}
	t.ev = t.r.at(t.r.now+delay, func() {
		t.ev = nil
		t.fn()
	})
}

func (t *refTimer) stop() {
	if t.ev != nil {
		t.ev.fn = nil
		t.ev = nil
	}
}

// kernel is the surface the differential test uses on both engines.
type kernel struct {
	now      func() float64
	at       func(t float64, fn func())
	schedule func(delay float64, fn func())
	newTimer func(fn func()) (reset func(float64), stop func())
	runUntil func(t float64)
	run      func()
	counts   func() (scheduled, fired int64)
}

func engineKernel(e *Engine) kernel {
	return kernel{
		now:      e.Now,
		at:       e.At,
		schedule: e.Schedule,
		newTimer: func(fn func()) (func(float64), func()) {
			tm := e.NewTimer(fn)
			return tm.Reset, tm.Stop
		},
		runUntil: e.RunUntil,
		run:      e.Run,
		counts:   func() (int64, int64) { return e.seq, e.fired },
	}
}

func refKernel(r *refEngine) kernel {
	return kernel{
		now:      func() float64 { return r.now },
		at:       func(t float64, fn func()) { r.at(t, fn) },
		schedule: func(d float64, fn func()) { r.at(r.now+d, fn) },
		newTimer: func(fn func()) (func(float64), func()) {
			tm := &refTimer{r: r, fn: fn}
			return tm.reset, tm.stop
		},
		runUntil: r.runUntil,
		run: func() {
			for r.step() {
			}
		},
		counts: func() (int64, int64) { return r.seq, r.fired },
	}
}

// drive runs one random workload on k and returns its firing log. Every
// decision comes from one rand.Source seeded by seed and is drawn inside
// callbacks, so two kernels that fire in the same order draw the same
// decisions. Delays are multiples of 0.25 s, zero included, so many
// events tie at one instant; timers re-arm and stop themselves and each
// other from inside their own callbacks.
func drive(k kernel, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	delay := func() float64 { return float64(rng.Intn(4)) * 0.25 }
	var log []string
	budget := 400
	const nTimers = 5
	resets := make([]func(float64), nTimers)
	stops := make([]func(), nTimers)
	var act func()
	act = func() {
		for n := rng.Intn(3); n > 0 && budget > 0; n-- {
			budget--
			switch op := rng.Intn(10); {
			case op < 3:
				id := budget
				k.at(k.now()+delay(), func() {
					log = append(log, fmt.Sprintf("at%d@%g", id, k.now()))
					act()
				})
			case op < 5:
				id := budget
				k.schedule(delay(), func() {
					log = append(log, fmt.Sprintf("sched%d@%g", id, k.now()))
					act()
				})
			case op < 8:
				resets[rng.Intn(nTimers)](delay())
			default:
				stops[rng.Intn(nTimers)]()
			}
		}
	}
	for i := range resets {
		i := i
		resets[i], stops[i] = k.newTimer(func() {
			log = append(log, fmt.Sprintf("timer%d@%g", i, k.now()))
			if rng.Intn(2) == 0 {
				resets[i](delay()) // re-arm from its own callback
			}
			act()
		})
	}
	for i := 0; i < 8; i++ {
		act()
	}
	for h := 0.5; h <= 5; h += 0.5 {
		k.runUntil(h)
		log = append(log, fmt.Sprintf("until@%g", k.now()))
		act()
	}
	k.run()
	s, f := k.counts()
	return append(log, fmt.Sprintf("end@%g scheduled=%d fired=%d", k.now(), s, f))
}

// TestEngineMatchesReference drives the Engine and the container/heap
// reference with the same random At, Reset and Stop calls and requires the
// same firing sequence, clock and scheduled/fired counts.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := drive(engineKernel(New()), seed)
		want := drive(refKernel(&refEngine{}), seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d = %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}
