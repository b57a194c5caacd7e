// csi-paper regenerates every table and figure of the paper's evaluation
// (see DESIGN.md for the experiment index).
//
// Usage:
//
//	csi-paper -scale quick all
//	csi-paper -scale full table4
//	csi-paper prop1 fig5 table3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"time"

	"csi/internal/core"
	"csi/internal/experiments"
	"csi/internal/obs"
	"csi/internal/obs/live"
	"csi/internal/session"
)

// driver runs one experiment at the given scale.
type driver func(experiments.Scale) (*experiments.Table, error)

// table4 and faults bind the design subset of a per-design driver.
func table4(designs ...session.Design) driver {
	return func(sc experiments.Scale) (*experiments.Table, error) {
		return experiments.Table4(sc, designs...)
	}
}

func faults(designs ...session.Design) driver {
	return func(sc experiments.Scale) (*experiments.Table, error) {
		return experiments.FaultSweep(sc, nil, designs...)
	}
}

// drivers maps every experiment name the command line accepts to its
// driver.
var drivers = map[string]driver{
	"prop1":     experiments.Prop1,
	"fig4":      func(experiments.Scale) (*experiments.Table, error) { return experiments.Fig4() },
	"fig5":      experiments.Fig5,
	"table3":    experiments.Table3,
	"table4":    table4(),
	"table4-ch": table4(session.CH),
	"table4-sh": table4(session.SH),
	"table4-cq": table4(session.CQ),
	"table4-sq": table4(session.SQ),
	"groups":    experiments.Groups,
	"fig10":     experiments.Fig10,
	"fig11":     experiments.Fig11,
	"hulu":      experiments.HuluBasics,
	"ablations": experiments.Ablations,
	"baseline":  experiments.Baseline,
	"timing":    experiments.Timing,
	// The degradation sweep is not part of "all": it replays every session
	// once per impairment level, which multiplies runtime.
	"faults":    faults(),
	"faults-sh": faults(session.SH),
	"faults-sq": faults(session.SQ),
}

// all is what "all" (or no name) runs, in order.
var all = []string{"prop1", "fig4", "fig5", "table3", "table4", "groups", "fig10", "fig11", "hulu", "ablations", "baseline", "timing"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "csi-paper:", err)
		os.Exit(1)
	}
}

// run does the work of main and returns its first error, so the deferred
// flush of every observability output runs on every exit path.
func run() (err error) {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	traceOut := flag.String("trace-out", "", "write an execution trace of the experiments (.jsonl = JSONL events, else Chrome trace format); runs execute concurrently, so record order is not deterministic")
	metrics := flag.String("metrics", "", "write an aggregate text metrics dump to this path (\"-\" = stdout)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this path (go tool pprof)")
	memProf := flag.String("memprofile", "", "write a heap profile taken after the experiments to this path (go tool pprof)")
	cacheMB := flag.Int64("half-cache-mb", 0, "share MUX half enumerations across the sweep's inferences through a process-wide cache of this many MiB (0 = disabled; never changes results)")
	budget := flag.Int64("work-budget", 0, "deterministic per-run inference step budget; exhausted runs degrade to partial inferences (0 = unbounded)")
	deadline := flag.Float64("deadline", 0, "wall-clock deadline per run in seconds; a liveness backstop, not deterministic (0 = none)")
	serve := flag.String("serve", "", "serve the live ops plane (/metrics, /statusz, /events, pprof) on this address, e.g. 127.0.0.1:8080; port 0 binds a free port")
	serveAddrFile := flag.String("serve-addr-file", "", "write the bound -serve address to this file (for scripts using port 0)")
	flag.Parse()

	// Check every name before the first (possibly minutes-long) run.
	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = all
	}
	for _, name := range names {
		if drivers[name] == nil {
			return fmt.Errorf("unknown experiment %s", name)
		}
	}
	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		return fmt.Errorf("unknown scale %s", *scale)
	}

	sc.WorkBudget = *budget
	sc.DeadlineSec = *deadline
	sc.HalfCache = core.NewHalfCache(*cacheMB << 20)
	// -serve only ever reads snapshots of the experiment registry, so
	// -metrics/-trace-out outputs stay byte-identical with and without it.
	ops, err := live.Setup(live.Config{
		Program: "csi-paper", Serve: *serve, TraceOut: *traceOut, Metrics: *metrics,
		CPUProfile: *cpuProf, MemProfile: *memProf,
		Extra: []*obs.Registry{sc.HalfCache.Registry()},
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, ops.Close()) }()
	sc.Obs = ops.Tracer
	sc.Stages = ops.Server.StageTimer()
	var current sync.Map // "experiment" -> name
	ops.Server.SetStatus("guard", func() any {
		return map[string]any{"work_budget": *budget, "deadline_sec": *deadline}
	})
	ops.Server.SetStatus("run", func() any {
		doc := map[string]any{"scale": *scale}
		if name, ok := current.Load("experiment"); ok {
			doc["experiment"] = name
		}
		return doc
	})
	if *serveAddrFile != "" && ops.Server != nil {
		if err := os.WriteFile(*serveAddrFile, []byte(ops.Server.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}
	ops.Server.SetReady(true)

	// First SIGINT drains gracefully: in-flight runs are cancelled via their
	// guards and whatever completed still renders. A second SIGINT kills the
	// process the default way.
	stop := make(chan struct{})
	sc.Interrupt = stop
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt)
	go func() {
		<-sigC
		fmt.Fprintln(os.Stderr, "csi-paper: interrupt — draining (interrupt again to kill)")
		close(stop)
		signal.Stop(sigC)
	}()

	for _, name := range names {
		current.Store("experiment", name)
		start := time.Now()
		tab, err := drivers[name](sc)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(tab.String())
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}
	return nil
}
