package experiments

import (
	"fmt"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/faults"
	"csi/internal/guard"
	"csi/internal/guard/runner"
	"csi/internal/media"
	"csi/internal/netem"
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
		audio := 0
		if d.Separate() {
			audio = 1
		}
		nv := sc.Videos
		if nv > 3 {
			nv = 3
		}
		var videos []*media.Manifest
		for v := 0; v < nv; v++ {
			man, err := media.Encode(media.EncodeConfig{
				Name: fmt.Sprintf("fault-%d", v), Seed: 1700 + int64(v)*13,
				DurationSec: 780 + 300*float64(v), ChunkDur: 5,
				TargetPASR:  1.3 + 0.2*float64(v%4),
				AudioTracks: audio,
			})
			if err != nil {
				return nil, err
			}
			videos = append(videos, man)
		}
		traces := netem.CellularTraceSet(77, sc.Traces)

		type job struct {
			man  *media.Manifest
			bw   *netem.BandwidthTrace
			seed int64
		}
		var jobs []job
		for vi, man := range videos {
			for ti, bw := range traces {
				jobs = append(jobs, job{man: man, bw: bw, seed: int64(vi*1000 + ti*10)})
			}
		}

		// Stream every session once, then score all levels against the same
		// captured bytes. Jobs run under the supervised runner; per-job
		// results land in index order, so the aggregate is deterministic.
		results := make([][]faultOutcome, len(jobs))
		skipped := make([]bool, len(jobs))
		tasks := make([]runner.Task, len(jobs))
		for ji, jb := range jobs {
			ji, jb := ji, jb
			tasks[ji] = runner.Task{
				Name: fmt.Sprintf("fault/%v/seed-%d", d, jb.seed),
				Run: func(g *guard.Ctx) error {
					res, err := session.Run(session.Config{
						Design: d, Manifest: jb.man, Bandwidth: jb.bw,
						Duration: sc.SessionSec, Seed: jb.seed,
						Obs: sc.Obs.Child(),
					})
					if err != nil {
						return fmt.Errorf("experiments: fault sweep seed %d: %w", jb.seed, err)
					}
					if len(res.Run.Truth) < 5 {
						skipped[ji] = true
						return nil
					}
					outs := make([]faultOutcome, len(levels))
					for li, lvl := range levels {
						run := res.Run
						if lvl.Spec.Enabled() {
							js := lvl.Spec
							// Every job sees a different realization of the same
							// impairment level, deterministically.
							js.Seed = js.Seed*1_000_003 + jb.seed*7919 + int64(li)
							run, _ = faults.Apply(res.Run, js, sc.Obs.Child())
						}
						outs[li] = scoreFaultRun(jb.man, run, d, sc, g)
					}
					// Drain artifacts are not data points (budget stops are).
					if g.Code() == guard.CodeCancelled {
						skipped[ji] = true
						return nil
					}
					results[ji] = outs
					return nil
				},
			}
		}
		rres := runner.Run(tasks, runnerPolicy(sc))
		var firstErr error
		for ji, r := range rres {
			if r.Err == nil {
				continue
			}
			skipped[ji] = true
			if r.Panicked || r.Cancelled {
				continue
			}
			if firstErr == nil {
				firstErr = r.Err
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}

		used := 0
		for ji := range results {
			if !skipped[ji] {
				used++
			}
		}
		if used == 0 {
			return nil, fmt.Errorf("experiments: no usable fault-sweep runs for %v", d)
		}
		for li, lvl := range levels {
			var best, worst, conf []float64
			warned, zero, qoeOK := 0, 0, 0
			for ji := range results {
				if skipped[ji] {
					continue
				}
				o := results[ji][li]
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
			n := float64(used)
			t.Rows = append(t.Rows, []string{
				d.String(), lvl.Name, lvl.Spec.String(), fmt.Sprintf("%d", used),
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
