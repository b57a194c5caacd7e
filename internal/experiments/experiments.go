// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result with a
// text renderer; cmd/csi-paper prints them and the repository benchmarks
// execute them at reduced scale.
package experiments

import (
	"fmt"
	"strings"

	"csi/internal/core"
	"csi/internal/guard/runner"
	"csi/internal/obs"
)

// Scale trades fidelity for runtime. Full approximates the paper's scale
// (within simulation reason); Quick keeps CI and benchmarks fast.
type Scale struct {
	Videos      int     // videos per service/profile
	Traces      int     // bandwidth traces
	Reps        int     // repetitions per combination
	SessionSec  float64 // streaming duration per run
	Samples     int     // sequence samples for uniqueness estimation
	MaxVideoSec float64 // cap on analyzed video duration

	// Obs, when non-nil, instruments the sessions and inference runs the
	// drivers execute (cmd/csi-paper wires it from -trace-out/-metrics).
	// Drivers hand each run a Child tracer, so metrics aggregate across
	// runs while clocks stay per-session; record interleaving across the
	// concurrent evaluation goroutines follows scheduling, so — unlike the
	// single-session csi-run/csi-analyze paths — csi-paper traces are not
	// byte-deterministic. Timing stays uninstrumented: it measures real
	// inference latency. Obs is ignored by the Scale-keyed eval cache only
	// in the sense that it rides along in the key; pass the same tracer
	// for a whole csi-paper invocation.
	Obs *obs.Tracer

	// Stages, when non-nil, receives wall-clock per-stage core.Infer
	// timings (estimate/candidates/dp) for live observation. The only
	// shipped implementation is the -serve ops plane's, which keeps the
	// durations in its own registry; Stages never influences any result.
	Stages obs.StageTimer

	// HalfCache, when non-nil, shares truth-free MUX half enumerations
	// across every inference of the sweep (and, being process-scoped,
	// across sweeps). See core.Params.HalfCache; a warm cache changes
	// speed and allocations, never a result.
	HalfCache *core.HalfCache

	// WorkBudget, when positive, bounds each evaluated run's inference by a
	// deterministic step budget (see guard.Ctx). Exhausted runs degrade to
	// partial inferences carrying a deadline_exceeded warning and score
	// accordingly instead of stalling the sweep.
	WorkBudget int64
	// DeadlineSec, when positive, adds a wall-clock deadline per run. It is
	// a liveness backstop, not a determinism mechanism: which run trips it
	// depends on machine speed.
	DeadlineSec float64
	// Interrupt, when non-nil, requests a graceful drain when closed:
	// in-flight runs are cancelled via their guards and pending tasks are
	// skipped. cmd/csi-paper wires it to SIGINT.
	Interrupt <-chan struct{}
}

// runnerPolicy maps a Scale onto the supervised runner policy every
// experiment driver executes its per-run tasks under.
func runnerPolicy(sc Scale) runner.Policy {
	return runner.Policy{
		WorkBudget:  sc.WorkBudget,
		DeadlineSec: sc.DeadlineSec,
		Interrupt:   sc.Interrupt,
		Obs:         sc.Obs,
	}
}

// Full is the EXPERIMENTS.md scale. The paper streams 10-minute sessions
// over 30 traces with 5 repetitions on a testbed of real devices; a
// single-core simulation budget calls for 5-minute sessions over 5 traces
// (still ~125 runs across the four designs). Session length mainly scales
// the number of ON-OFF cycles, not the per-cycle behaviour CSI analyzes.
var Full = Scale{Videos: 12, Traces: 5, Reps: 1, SessionSec: 300, Samples: 4000, MaxVideoSec: 1800}

// Quick keeps tests and benchmarks snappy.
var Quick = Scale{Videos: 4, Traces: 3, Reps: 1, SessionSec: 150, Samples: 1500, MaxVideoSec: 650}

// Table is a generic renderable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f", 100*v) }
