// csibench is the repository's benchmark: one command that runs a workload
// through the public functions of the CSI packages, checks the outputs, and
// prints every metric by name and unit. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same workload with spans recorded around every call into a layer and
// reports the per-layer breakdown plus the tracing overhead. See
// perfbench/README.md for the workloads and the metric definitions.
//
// Usage (from the repository root, through perfbench/run.py):
//
//	csibench -workload infer-sq -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times each run builds its inputs; setup_s is the
// median build time.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	small    bool
	outDir   string // absolute path of .bench_build
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // correctness-gate findings; any one fails the run
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer list the metrics of the workloads BENCHMARK.json
// gates, with their units, and must match it (run.py --selfcheck compares
// them). infer-sq, which BENCHMARK.json does not gate, adds the sq* lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"accuracy_pct", "%"},
	{"worst_accuracy_pct", "%"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"session.run_s", "s"},
	{"session.packets", "count"},
	{"core.estimate_s", "s"},
	{"core.candidates_s", "s"},
	{"core.dp_s", "s"},
	{"stream.decode_s", "s"},
	{"stream.ingest_wait_s", "s"},
	{"stream.drain_s", "s"},
	{"stream.solves_per_flow", "count"},
	{"stream.solve_failures", "count"},
	{"stream.final_ms_p50", "ms"},
	{"stream.wal_bytes_per_frame", "B"},
	{"stream.wal_fsyncs", "count"},
	{"stream.snapshots", "count"},
	{"stream.state_dir_mb", "MiB"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

var sqEndToEnd = []metricDef{
	{"sessions_per_s", "1/s"},
}

var sqPerLayer = []metricDef{
	{"capture.byconn_s", "s"},
	{"core.window_calls", "count"},
	{"core.window_rejects", "count"},
	{"core.window_useful_ratio", "ratio"},
	{"core.window_truncations", "count"},
	{"core.half_cache_hits", "count"},
	{"core.half_cache_misses", "count"},
	{"core.half_cache_hit_ratio", "ratio"},
}

func main() {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "infer-sq, monitor-replay or monitor-durable")
	flag.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer breakdown")
	flag.BoolVar(&c.small, "small", false, "smallest input sizes (self-check)")
	flag.Parse()
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		die(fmt.Errorf("usage: csibench -workload <name> -seed <n> -seconds <n> -trace <0|1>"))
	}
	// Span dumps and durable monitor state stay inside the checkout, in the
	// directory run.py builds into.
	out, err := filepath.Abs(".bench_build")
	if err != nil {
		die(err)
	}
	c.outDir = out

	var res *result
	switch c.workload {
	case "infer-sq":
		res, err = runInferSQ(c)
	case "monitor-replay":
		res, err = runMonitor(c, false)
	case "monitor-durable":
		res, err = runMonitor(c, true)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		die(err)
	}
	report(c, res)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "csibench:", err)
	os.Exit(2)
}

// report prints the machine facts, a readable metric table and, last, the
// result object. A failed correctness gate prints no numbers and exits 1.
func report(c config, res *result) {
	facts := machineFacts()
	facts["workload"], facts["seed"], facts["trace"] = c.workload, c.seed, c.trace
	line, err := json.Marshal(map[string]any{"machine": facts})
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))

	res.Correct = len(res.problems) == 0 && res.Failed == 0
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "csibench: correctness:", p)
		}
		res.Metrics = map[string]metric{}
	} else {
		want := endToEnd
		if c.trace {
			want = perLayer
			for _, m := range perLayer {
				// Layers the workload never calls read 0.
				if _, ok := res.Metrics[m.name]; !ok {
					res.Metrics[m.name] = metric{0, m.unit}
				}
			}
		}
		if c.workload == "infer-sq" {
			extra := sqEndToEnd
			if c.trace {
				extra = sqPerLayer
			}
			want = slices.Concat(want, extra)
		}
		keep := make(map[string]metric, len(want))
		for _, d := range want {
			m, ok := res.Metrics[d.name]
			if !ok {
				die(fmt.Errorf("workload %s did not report %s", c.workload, d.name))
			}
			keep[d.name] = m
		}
		res.Metrics = keep
		names := make([]string, 0, len(keep))
		for n := range keep {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-28s %16.6g %s\n", n, keep[n].Value, keep[n].Unit)
		}
	}
	line, err = json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// set records a metric with the unit the metric lists give it.
func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	for _, d := range slices.Concat(endToEnd, perLayer, sqEndToEnd, sqPerLayer) {
		if d.name == name {
			r.Metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("csibench: unlisted metric " + name)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
