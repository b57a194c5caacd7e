// Package runner is the supervised worker pool of the guard layer: it runs
// independent tasks (typically one streamed session + inference each) under
// per-task guard tokens, contains panics, and drains gracefully on
// interrupt. The experiment sweeps and cmd/csi-paper run every session
// through it, so one poisoned or pathological session degrades to a single
// failed Result instead of killing the batch. It never retries: every task
// is a seeded simulation that fails the same way on every attempt.
package runner

import (
	"errors"
	"runtime"
	"sync"

	"csi/internal/guard"
	"csi/internal/obs"
)

// Task is one unit of supervised work.
type Task struct {
	// Name identifies the task in results and obs events.
	Name string
	// Run does the work. The guard token carries the per-task budget
	// and deadline and is cancelled on interrupt; implementations should
	// pass it down to core.Infer via Params.Guard.
	Run func(*guard.Ctx) error
}

// Policy configures a Run call.
type Policy struct {
	// Workers caps concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// WorkBudget is the per-task guard step budget; <= 0 is unmetered.
	WorkBudget int64
	// DeadlineSec arms a per-task wall-clock deadline; <= 0 disables.
	DeadlineSec float64
	// Clock supplies the deadline clock; nil defaults to guard.WallClock()
	// (tests inject a virtual clock instead).
	Clock func() func() float64
	// Interrupt, when closed, cancels all in-flight guards and stops
	// dispatching new tasks; already-running tasks drain to completion
	// (their guards report cancelled, so they wind down quickly).
	Interrupt <-chan struct{}
	// Obs receives runner counters and events; nil disables.
	Obs *obs.Tracer
}

// Result is the outcome of one task, in task order.
type Result struct {
	Name string
	// Err is nil on success. Contained panics surface as *guard.PanicError,
	// tasks interrupted before they started as ErrInterrupted.
	Err error
	// Panicked is set when the failure was a contained panic.
	Panicked bool
	// Cancelled is set when the task's guard was cancelled (interrupt or
	// a Cancel from inside the task), or the interrupt came before the
	// task started.
	Cancelled bool
}

// ErrInterrupted is the Err of a task the interrupt skipped before it
// started.
var ErrInterrupted = errors.New("runner: interrupted before start")

// Run executes tasks under pol and returns per-task results in task order.
// It blocks until every dispatched task has drained, even on interrupt,
// and leaves no goroutines behind.
func Run(tasks []Task, pol Policy) []Result {
	workers := pol.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	reg := pol.Obs.Metrics()
	cPanics := reg.Counter("runner.panics")
	cCancels := reg.Counter("runner.cancellations")
	// Progress metrics for in-flight observation (the live ops plane derives
	// remaining/rate/ETA from them). All increments are deterministic in
	// aggregate: tasks_completed + tasks_failed converges to tasks_total and
	// tasks_active returns to zero, whatever the worker interleaving.
	cTotal := reg.Counter("runner.tasks_total")
	cCompleted := reg.Counter("runner.tasks_completed")
	cFailed := reg.Counter("runner.tasks_failed")
	gActive := reg.Gauge("runner.tasks_active")
	cTotal.Add(int64(len(tasks)))

	var (
		mu          sync.Mutex
		active      = make(map[*guard.Ctx]bool)
		interrupted bool
	)

	// Interrupt watcher: cancel every in-flight guard once, then exit.
	// The done channel bounds its lifetime so an unused Interrupt channel
	// does not leak the goroutine past Run.
	done := make(chan struct{})
	defer close(done)
	if pol.Interrupt != nil {
		go func() {
			//csi-vet:ignore taint -- interrupt delivery is inherently asynchronous; it only cancels guards, results still commit in submission order
			select {
			case <-pol.Interrupt:
				mu.Lock()
				interrupted = true
				for g := range active {
					g.Cancel("interrupt: draining")
				}
				mu.Unlock()
			case <-done:
			}
		}()
	}

	// start registers a fresh guard for one task; it returns nil when the
	// interrupt came first, so the task is skipped.
	start := func() *guard.Ctx {
		mu.Lock()
		defer mu.Unlock()
		if interrupted {
			return nil
		}
		g := guard.New(pol.WorkBudget)
		if pol.DeadlineSec > 0 {
			clock := pol.Clock
			if clock == nil {
				clock = guard.WallClock
			}
			g.WithDeadline(clock(), pol.DeadlineSec)
		}
		active[g] = true
		return g
	}

	results := make([]Result, len(tasks))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range tasks {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			res := Result{Name: tasks[i].Name}
			if g := start(); g == nil {
				res.Err = ErrInterrupted
				res.Cancelled = true
			} else {
				gActive.Add(1)
				res.Err = contain(tasks[i].Run, g)
				gActive.Add(-1)
				mu.Lock()
				delete(active, g)
				mu.Unlock()
				var pe *guard.PanicError
				res.Panicked = errors.As(res.Err, &pe)
				res.Cancelled = g.Code() == guard.CodeCancelled
			}
			if res.Panicked {
				cPanics.Inc()
			}
			if res.Cancelled {
				cCancels.Inc()
			}
			if res.Err == nil {
				cCompleted.Inc()
			} else {
				cFailed.Inc()
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if pol.Obs.Enabled() {
		failed := 0
		for _, r := range results {
			if r.Err == nil {
				continue
			}
			failed++
			pol.Obs.Event("runner", "task_failed",
				obs.Str("task", r.Name), obs.Err("error", r.Err))
		}
		pol.Obs.Event("runner", "drained",
			obs.Int("tasks", int64(len(tasks))),
			obs.Int("completed", int64(len(tasks)-failed)),
			obs.Int("failed", int64(failed)))
	}
	return results
}

// contain runs fn under g, converting a panic into a *guard.PanicError.
func contain(fn func(*guard.Ctx) error, g *guard.Ctx) (err error) {
	defer guard.Capture(&err)
	return fn(g)
}
