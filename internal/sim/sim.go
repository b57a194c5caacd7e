// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers (links, transports, players) run on a single Engine.
// Time is virtual, measured in float64 seconds. Events scheduled for the
// same instant fire in scheduling order, which keeps runs bit-for-bit
// reproducible.
//
// There are two kinds of event. At and Schedule queue a fire-and-forget
// callback and return no handle, so its event can be recycled once it
// fires. A Timer is a callback that stays bound to one queue entry and is
// re-armed with Reset or removed with Stop, so the queue never holds an
// entry that will not fire.
package sim

import (
	"fmt"
	"math"

	"csi/internal/obs"
)

// event is one queue entry. The queue orders entries by (at, seq); seq is
// unique, so the order is total and ties at one instant fire in the order
// they were scheduled.
type event struct {
	at    float64
	seq   int64
	fn    func()
	index int  // heap index, -1 while not queued
	timer bool // owned by a Timer, never recycled
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the event loop. The zero value is not usable; call New.
type Engine struct {
	now    float64
	seq    int64
	pq     []*event // min-heap by (at, seq)
	free   []*event // fired fire-and-forget events, for reuse
	fired  int64
	maxEvt int64 // safety valve; 0 = unlimited

	// Observability handles; all nil-safe, so the uninstrumented engine
	// pays one pointer check per site.
	tr         *obs.Tracer
	cScheduled *obs.Counter
	cFired     *obs.Counter
}

// queueDepthEvery is the dispatch interval between queue-depth samples.
// It sets which events carry a sample in the committed traces, so changing
// it changes every traced golden.
const queueDepthEvery = 4096

// Instrument attaches a tracer to the engine. Pass nil to detach. Counter
// handles are resolved once here, keeping Step and At allocation-free.
func (e *Engine) Instrument(tr *obs.Tracer) {
	e.tr = tr
	e.cScheduled = tr.Metrics().Counter("sim.events_scheduled")
	e.cFired = tr.Metrics().Counter("sim.events_fired")
}

// New returns a ready Engine with the clock at 0.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// SetEventLimit sets a safety cap on the number of events Run will execute
// before panicking. Zero means unlimited. Useful for catching runaway
// simulations in tests.
func (e *Engine) SetEventLimit(n int64) { e.maxEvt = n }

// nextSeq validates an event time, counts the event as scheduled and
// takes the next tie-break number.
func (e *Engine) nextSeq(t float64) int64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: t=%g now=%g", t, e.now)) //csi-vet:ignore nakedpanic -- scheduling into the past is a simulator bug, not a recoverable state
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: invalid event time %g", t)) //csi-vet:ignore nakedpanic -- NaN/Inf event times corrupt the event queue ordering
	}
	e.seq++
	e.cScheduled.Inc()
	return e.seq
}

// At schedules fn to run at absolute virtual time t. t must not be in the
// past.
func (e *Engine) At(t float64, fn func()) {
	seq := e.nextSeq(t)
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn = t, seq, fn
	e.push(ev)
}

// Schedule schedules fn to run after delay seconds. delay must be >= 0.
func (e *Engine) Schedule(delay float64, fn func()) {
	e.At(e.now+delay, fn)
}

// Step executes the next pending event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq[0]
	e.remove(0)
	e.now = ev.at
	fn := ev.fn
	if !ev.timer {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	e.fired++
	if e.maxEvt > 0 && e.fired > e.maxEvt {
		panic("sim: event limit exceeded") //csi-vet:ignore nakedpanic -- the event limit exists to abort runaway simulations
	}
	if e.tr != nil {
		e.cFired.Inc()
		if e.fired%queueDepthEvery == 0 {
			e.tr.Sample("sim", "queue_depth", float64(e.Pending()))
		}
	}
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled exactly at t do run.
func (e *Engine) RunUntil(t float64) {
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of events in the queue. Every one of them
// will fire unless a Timer is stopped first.
func (e *Engine) Pending() int { return len(e.pq) }

func (e *Engine) push(ev *event) {
	ev.index = len(e.pq)
	e.pq = append(e.pq, ev)
	e.up(ev.index)
}

// remove takes the entry at heap index i out of the queue.
func (e *Engine) remove(i int) {
	pq := e.pq
	n := len(pq) - 1
	ev := pq[i]
	if i != n {
		pq[i] = pq[n]
		pq[i].index = i
	}
	pq[n] = nil
	e.pq = pq[:n]
	ev.index = -1
	if i != n {
		e.fix(i)
	}
}

// fix restores heap order after the key at index i changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

func (e *Engine) up(i int) {
	pq := e.pq
	ev := pq[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(pq[p]) {
			break
		}
		pq[i] = pq[p]
		pq[i].index = i
		i = p
	}
	pq[i] = ev
	ev.index = i
}

// down sifts the entry at index i toward the leaves and reports whether it
// moved.
func (e *Engine) down(i0 int) bool {
	pq := e.pq
	n := len(pq)
	ev := pq[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && pq[r].before(pq[c]) {
			c = r
		}
		if !pq[c].before(ev) {
			break
		}
		pq[i] = pq[c]
		pq[i].index = i
		i = c
	}
	pq[i] = ev
	ev.index = i
	return i > i0
}

// Timer is a callback that can be armed, re-armed and stopped any number
// of times. It owns one queue entry: Reset re-keys it in place and Stop
// removes it, so a re-armed timer never leaves a dead entry behind.
type Timer struct {
	e  *Engine
	ev event
}

// NewTimer returns a stopped timer that runs fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{e: e, ev: event{fn: fn, index: -1, timer: true}}
}

// Reset arms the timer to fire after delay seconds, replacing any pending
// expiry. It takes a tie-break number exactly as Schedule does, so a Reset
// fires in the same order as a cancel followed by a fresh Schedule.
func (t *Timer) Reset(delay float64) {
	e := t.e
	at := e.now + delay
	t.ev.seq = e.nextSeq(at)
	t.ev.at = at
	if t.ev.index >= 0 {
		e.fix(t.ev.index)
	} else {
		e.push(&t.ev)
	}
}

// Stop disarms the timer. Stopping a timer that is not pending is a no-op.
func (t *Timer) Stop() {
	if t.ev.index >= 0 {
		t.e.remove(t.ev.index)
	}
}

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.ev.index >= 0 }
