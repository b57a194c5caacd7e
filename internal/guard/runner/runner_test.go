package runner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"csi/internal/guard"
	"csi/internal/obs"
	"csi/internal/testleak"
)

func TestRunOrderAndStats(t *testing.T) {
	testleak.Check(t)
	var order []string
	var mu sync.Mutex
	tasks := make([]Task, 10)
	for i := range tasks {
		name := fmt.Sprintf("t%d", i)
		tasks[i] = Task{Name: name, Run: func(*guard.Ctx) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}}
	}
	res := Run(tasks, Policy{Workers: 4})
	if len(res) != 10 || len(order) != 10 {
		t.Fatalf("ran %d tasks, results %d", len(order), len(res))
	}
	for i, r := range res {
		want := Result{Name: fmt.Sprintf("t%d", i)}
		if r != want {
			t.Fatalf("result[%d] = %+v, want %+v", i, r, want)
		}
	}
}

func TestPanicContainedSiblingsComplete(t *testing.T) {
	testleak.Check(t)
	var completed atomic.Int64
	tasks := []Task{
		{Name: "ok-1", Run: func(*guard.Ctx) error { completed.Add(1); return nil }},
		{Name: "boom", Run: func(*guard.Ctx) error { panic("poisoned session") }},
		{Name: "ok-2", Run: func(*guard.Ctx) error { completed.Add(1); return nil }},
	}
	tr := obs.New(nil, obs.NewCollector())
	res := Run(tasks, Policy{Workers: 1, Obs: tr})
	if completed.Load() != 2 {
		t.Fatalf("siblings completed = %d, want 2", completed.Load())
	}
	var pe *guard.PanicError
	if !errors.As(res[1].Err, &pe) || pe.Value != "poisoned session" {
		t.Fatalf("res[1].Err = %v, want contained panic", res[1].Err)
	}
	if !res[1].Panicked || res[1].Cancelled {
		t.Fatalf("res[1] = %+v, want Panicked only", res[1])
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("siblings failed: %+v, %+v", res[0], res[2])
	}
	if v := tr.Metrics().Counter("runner.panics").Value(); v != 1 {
		t.Fatalf("runner.panics = %d", v)
	}
	// Progress counters: every task reaches a terminal count and the active
	// gauge settles back to zero.
	reg := tr.Metrics()
	if v := reg.Counter("runner.tasks_total").Value(); v != 3 {
		t.Fatalf("runner.tasks_total = %d", v)
	}
	if v := reg.Counter("runner.tasks_completed").Value(); v != 2 {
		t.Fatalf("runner.tasks_completed = %d", v)
	}
	if v := reg.Counter("runner.tasks_failed").Value(); v != 1 {
		t.Fatalf("runner.tasks_failed = %d", v)
	}
	if v, ok := reg.Gauge("runner.tasks_active").Value(); !ok || v != 0 {
		t.Fatalf("runner.tasks_active = %g/%v, want 0 after drain", v, ok)
	}
}

func TestWorkBudgetStopsTask(t *testing.T) {
	testleak.Check(t)
	tasks := []Task{{Name: "heavy", Run: func(g *guard.Ctx) error {
		for g.Step(1) {
		}
		return g.Err()
	}}}
	res := Run(tasks, Policy{WorkBudget: 100})
	var se *guard.StopError
	if !errors.As(res[0].Err, &se) || se.Code != guard.CodeDeadline {
		t.Fatalf("res.Err = %v, want budget StopError", res[0].Err)
	}
}

func TestInterruptDrainCancelsMidFlight(t *testing.T) {
	testleak.Check(t)
	interrupt := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	slow := func(g *guard.Ctx) error {
		once.Do(func() { close(started) })
		// Spin until the interrupt cancels our guard; a hung task would
		// time the test out instead of draining.
		for g.OK() {
		}
		return g.Err()
	}
	tasks := []Task{
		{Name: "slow-0", Run: slow},
		{Name: "slow-1", Run: slow},
		{Name: "late", Run: func(*guard.Ctx) error { return nil }},
	}
	go func() {
		<-started
		close(interrupt)
	}()
	res := Run(tasks, Policy{Workers: 2, Interrupt: interrupt})
	// The third task either never started (ErrInterrupted) or was
	// dispatched concurrently with the interrupt and drained cancelled.
	for i, r := range res {
		if !r.Cancelled || r.Err == nil {
			t.Fatalf("res[%d] = %+v, want cancelled with an error", i, r)
		}
	}
}

func TestInterruptNeverFiredNoLeak(t *testing.T) {
	testleak.Check(t)
	interrupt := make(chan struct{}) // never closed
	tasks := []Task{{Name: "quick", Run: func(*guard.Ctx) error { return nil }}}
	res := Run(tasks, Policy{Interrupt: interrupt})
	if res[0].Err != nil {
		t.Fatalf("res = %+v", res[0])
	}
	// testleak.Check asserts the watcher goroutine exited.
}
