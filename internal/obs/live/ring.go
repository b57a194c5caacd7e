package live

import (
	"sync"

	"csi/internal/obs"
)

// Ring is a bounded, concurrency-safe ring buffer of obs records with a
// monotonic sequence number per record. It implements obs.Sink, so Setup
// fans the tracer's record stream into it (obs.Fanout) alongside the
// regular collector; the /events SSE endpoint tails it. When the buffer is
// full the oldest records are dropped — a live tail is a window, not an
// archive; the JSONL/Chrome exporters remain the lossless path.
type Ring struct {
	mu     sync.Mutex
	buf    []obs.Record
	cap    int
	next   uint64        // sequence number of the next record to arrive
	notify chan struct{} // lazily built by Wait, closed by the next Emit
}

// NewRing returns a ring holding at most capacity records (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cap: capacity}
}

// Emit appends the record, evicting the oldest when full, and wakes every
// blocked Wait. With no waiter armed the cost is one mutexed append — the
// ring never allocates per record on behalf of absent subscribers.
func (r *Ring) Emit(rec obs.Record) {
	r.mu.Lock()
	if len(r.buf) == r.cap {
		copy(r.buf, r.buf[1:])
		r.buf[len(r.buf)-1] = rec
	} else {
		r.buf = append(r.buf, rec)
	}
	r.next++
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
	r.mu.Unlock()
}

// TailFrom returns every buffered record with sequence >= from, the
// sequence number of the first returned record (after any truncation), and
// the sequence the next record will get. A caller that asks for a sequence
// already evicted silently gets the oldest retained tail — the truncation
// is visible as first > from.
func (r *Ring) TailFrom(from uint64) (recs []obs.Record, first, next uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := r.next - uint64(len(r.buf))
	if from < oldest {
		from = oldest
	}
	if from < r.next {
		recs = append(recs, r.buf[len(r.buf)-int(r.next-from):]...)
	}
	return recs, from, r.next
}

// Len returns the number of buffered records.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Wait returns a channel that is closed once any record later than the
// current tail arrives. Callers re-arm by calling Wait again after
// draining TailFrom.
func (r *Ring) Wait() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return r.notify
}
