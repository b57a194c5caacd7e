// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers (links, transports, players) run on a single Engine.
// Time is virtual, measured in float64 seconds. Events scheduled for the
// same instant fire in scheduling order, which keeps runs bit-for-bit
// reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"csi/internal/obs"
)

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at    float64
	seq   int64
	fn    func()
	index int // heap index, -1 once popped or cancelled
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() {
	ev.fn = nil
}

// Cancelled reports whether the event was cancelled or already fired.
func (ev *Event) Cancelled() bool { return ev.fn == nil }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is the event loop. The zero value is not usable; call New.
type Engine struct {
	now    float64
	seq    int64
	pq     eventHeap
	fired  int64
	maxEvt int64 // safety valve; 0 = unlimited

	// Observability handles; all nil-safe, so the uninstrumented engine
	// pays one pointer check per site.
	tr           *obs.Tracer
	cScheduled   *obs.Counter
	cFired       *obs.Counter
	cCancelSkips *obs.Counter
}

// queueDepthEvery is the dispatch interval between queue-depth samples.
// Pending() is O(queue), so sampling every event would turn dispatch
// quadratic on deep queues.
const queueDepthEvery = 4096

// Instrument attaches a tracer to the engine. Pass nil to detach. Counter
// handles are resolved once here, keeping Step and At allocation-free.
func (e *Engine) Instrument(tr *obs.Tracer) {
	e.tr = tr
	e.cScheduled = tr.Metrics().Counter("sim.events_scheduled")
	e.cFired = tr.Metrics().Counter("sim.events_fired")
	e.cCancelSkips = tr.Metrics().Counter("sim.cancelled_skips")
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

// At schedules fn to run at absolute virtual time t. t must not be in the
// past.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: t=%g now=%g", t, e.now)) //csi-vet:ignore nakedpanic -- scheduling into the past is a simulator bug, not a recoverable state
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: invalid event time %g", t)) //csi-vet:ignore nakedpanic -- NaN/Inf event times corrupt the event queue ordering
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.pq, ev)
	e.cScheduled.Inc()
	return ev
}

// Schedule schedules fn to run after delay seconds. delay must be >= 0.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// Step executes the next pending event, if any, and reports whether one ran.
// Cancelled events are skipped transparently.
func (e *Engine) Step() bool {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(*Event)
		if ev.fn == nil {
			e.cCancelSkips.Inc()
			continue
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
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
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled exactly at t do run.
func (e *Engine) RunUntil(t float64) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *Engine) peek() *Event {
	for e.pq.Len() > 0 {
		ev := e.pq[0]
		if ev.fn == nil {
			heap.Pop(&e.pq)
			continue
		}
		return ev
	}
	return nil
}

// Pending returns the number of live (non-cancelled) events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.pq {
		if ev != nil && ev.fn != nil {
			n++
		}
	}
	return n
}
