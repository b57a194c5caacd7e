package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(2, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %g, want 3", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineScheduleRelative(t *testing.T) {
	e := New()
	var at float64
	e.At(5, func() {
		e.Schedule(2.5, func() { at = e.Now() })
	})
	e.Run()
	if at != 7.5 {
		t.Fatalf("nested schedule fired at %g, want 7.5", at)
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(1)
	tm.Stop()
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}
	tm.Stop() // stopping a stopped timer is a no-op
}

func TestTimerReset(t *testing.T) {
	e := New()
	var got []float64
	tm := e.NewTimer(func() { got = append(got, e.Now()) })
	tm.Reset(5)
	tm.Reset(2) // re-keys the pending expiry, does not add a second one
	e.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("timer fired at %v, want [2]", got)
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after firing")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var got []float64
	for _, tt := range []float64{1, 2, 3, 4} {
		tt := tt
		e.At(tt, func() { got = append(got, tt) })
	}
	e.RunUntil(2)
	if len(got) != 2 {
		t.Fatalf("RunUntil(2) fired %d events, want 2", len(got))
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %g, want 2", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 4 {
		t.Fatalf("after RunUntil(10) fired %d events, want 4", len(got))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %g, want 10 (clock advances to horizon)", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestEnginePending(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	tm.Reset(1)
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending() after Stop = %d, want 1", e.Pending())
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := New()
		var fired []float64
		for _, raw := range times {
			tt := float64(raw) / 16
			e.At(tt, func() { fired = append(fired, tt) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEventLimit(t *testing.T) {
	e := New()
	e.SetEventLimit(10)
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not trip the event limit")
		}
	}()
	e.Run()
}

// TestSteadyDispatchAllocatesNothing pins the recycling of fired events:
// once the queue has reached its working size, a self-rescheduling
// Schedule loop and a self-re-arming Timer dispatch without allocating.
func TestSteadyDispatchAllocatesNothing(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		d := float64(i%7+1) * 0.001
		var tick func()
		tick = func() { e.Schedule(d, tick) }
		e.Schedule(0, tick)
	}
	var tm *Timer
	tm = e.NewTimer(func() { tm.Reset(0.002) })
	tm.Reset(0)
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	// AllocsPerRun truncates to whole allocations per run, so each run
	// dispatches a batch: one allocation in the batch reads as 1.
	steps := func() {
		for i := 0; i < 100; i++ {
			e.Step()
		}
	}
	if got := testing.AllocsPerRun(100, steps); got != 0 {
		t.Fatalf("steady dispatch allocates %g per 100 events, want 0", got)
	}
}

// BenchmarkEngine measures raw event throughput of the kernel; everything
// else in the repository runs on top of it.
func BenchmarkEngine(b *testing.B) {
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(0.001, tick)
		}
	}
	e.Schedule(0, tick)
	b.ResetTimer()
	e.Run()
}
