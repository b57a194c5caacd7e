package experiments

import (
	"fmt"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/faults"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/qoe"
	"csi/internal/session"
	"csi/internal/stats"
)

// FaultLevel is one point of the degradation sweep: a named monitor
// impairment setting applied to every captured session.
type FaultLevel struct {
	Name string
	Spec faults.Spec
}

// mustLevel builds a level from ParseSpec syntax; the inputs are literals
// exercised by the package tests, so a parse failure is a programming error.
func mustLevel(name, spec string) FaultLevel {
	s, err := faults.ParseSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in fault level %q: %v", name, err)) //csi-vet:ignore nakedpanic -- literal built-in specs; a parse failure is a programming error
	}
	return FaultLevel{Name: name, Spec: s}
}

// DefaultFaultLevels is the degradation curve of the robustness study: a
// clean baseline plus single impairments in rising severity and one
// everything-at-once level.
func DefaultFaultLevels() []FaultLevel {
	return []FaultLevel{
		mustLevel("clean", ""),
		mustLevel("loss-0.5%", "loss=0.005"),
		mustLevel("loss-2%", "loss=0.02"),
		mustLevel("midstart-10s", "start=10"),
		mustLevel("snaplen-96", "snaplen=96"),
		mustLevel("dup-1%", "dup=0.01"),
		mustLevel("cross-2", "cross=2"),
		mustLevel("combined", "loss=0.01,start=5,dup=0.005,cross=1"),
	}
}

// faultOutcome is the scored result of one (run, level) inference.
type faultOutcome struct {
	best, worst float64
	conf        float64 // mean per-chunk confidence
	warned      bool    // inference carried structured warnings
	zero        bool    // degraded to the zero inference
	qoeOK       bool    // QoE reconstruction succeeded (possibly partial)
	qoePartial  bool
}

// FaultSweep streams each (video, trace) session ONCE per design and then
// replays the captured run through every impairment level, inferring with
// graceful degradation enabled. The zero-impairment level is inferred from
// the very same bytes as the others, so its row is the exact clean
// baseline the curve degrades from.
func FaultSweep(sc Scale, levels []FaultLevel, designs ...session.Design) (*Table, error) {
	if len(levels) == 0 {
		levels = DefaultFaultLevels()
	}
	if len(designs) == 0 {
		designs = []session.Design{session.SH, session.SQ}
	}
	t := &Table{
		Title:  "Inference accuracy under monitor-side capture faults",
		Header: []string{"case", "level", "spec", "runs", "best", "worst", "conf", "warned", "zero", "qoe"},
		Notes: []string{
			"best/worst: mean best/worst-candidate accuracy vs ground truth, in %.",
			"conf: mean per-chunk confidence; warned: % of runs with structured warnings;",
			"zero: % of runs degraded to the zero inference; qoe: % of runs with a",
			"(possibly partial) QoE reconstruction. Inference runs with Degrade enabled;",
			"the clean level is the exact no-impairment baseline.",
		},
	}
	for _, d := range designs {
		runs, err := sweepGrid(d, sc, "fault", 1700, 3, 1)
		if err != nil {
			return nil, err
		}
		// Stream every session once, then score all levels against the same
		// captured bytes.
		results, err := runSweep(d, sc, "fault", runs, func(r sweepRun, run *capture.Run, g *guard.Ctx) []faultOutcome {
			outs := make([]faultOutcome, len(levels))
			for li, lvl := range levels {
				impaired := run
				if lvl.Spec.Enabled() {
					js := lvl.Spec
					// Every run sees a different realization of the same
					// impairment level, deterministically.
					js.Seed = js.Seed*1_000_003 + r.seed*7919 + int64(li)
					impaired, _ = faults.Apply(run, js, sc.Obs.Child())
				}
				outs[li] = scoreFaultRun(r.man, impaired, d, sc, g)
			}
			return outs
		})
		if err != nil {
			return nil, err
		}
		n := float64(len(results))
		for li, lvl := range levels {
			var best, worst, conf []float64
			warned, zero, qoeOK := 0, 0, 0
			for _, outs := range results {
				o := outs[li]
				best = append(best, o.best)
				worst = append(worst, o.worst)
				conf = append(conf, o.conf)
				if o.warned {
					warned++
				}
				if o.zero {
					zero++
				}
				if o.qoeOK {
					qoeOK++
				}
			}
			t.Rows = append(t.Rows, []string{
				d.String(), lvl.Name, lvl.Spec.String(), fmt.Sprintf("%d", len(results)),
				pct(stats.Mean(best)), pct(stats.Mean(worst)), f2(stats.Mean(conf)),
				pct(float64(warned) / n), pct(float64(zero) / n), pct(float64(qoeOK) / n),
			})
		}
	}
	return t, nil
}

// scoreFaultRun infers one (possibly impaired) run with degradation enabled
// and scores it. Inference failures are impossible by construction — Degrade
// converts them to zero inferences — so every run contributes a point. The
// guard is the per-task budget shared by all levels of one job; once it is
// exhausted the remaining levels degrade to zero inferences immediately.
func scoreFaultRun(man *media.Manifest, run *capture.Run, d session.Design, sc Scale, g *guard.Ctx) faultOutcome {
	o := faultOutcome{}
	p := core.Params{
		MediaHost: man.Host, Mux: d == session.SQ,
		Degrade: true, Obs: sc.Obs.Child(), Guard: g, Stages: sc.Stages,
		HalfCache: sc.HalfCache,
	}
	inf, err := core.Infer(man, run.Trace, p)
	if err != nil {
		// Degrade should make this unreachable; score zero defensively.
		o.warned, o.zero = true, true
		return o
	}
	o.best, o.worst, err = inf.AccuracyRange(run.Truth)
	if err != nil {
		o.best, o.worst = 0, 0
	}
	o.warned = len(inf.Warnings) > 0
	o.zero = inf.SequenceCount == 0
	o.conf = stats.Mean(inf.Confidences())
	if !inf.Mux && inf.Best != nil {
		chunks := inf.QoEChunks(man)
		rep, qerr := qoe.Analyze(chunks, qoe.Config{
			ChunkDur: man.ChunkDur, Horizon: sc.SessionSec, TolerateGaps: true,
		})
		if qerr == nil {
			o.qoeOK = true
			o.qoePartial = rep.Partial
		}
	}
	return o
}
