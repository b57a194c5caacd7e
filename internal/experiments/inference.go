package experiments

import (
	"fmt"
	"sync"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/guard"
	"csi/internal/session"
	"csi/internal/stats"
)

// runOutcome is the accuracy of one evaluated run.
type runOutcome struct {
	best, worst           float64
	bestDisp, worstDisp   float64
	groups                []int // SQ: request count per traffic group
	uniqueSeq, uniqueDisp bool
	err                   error
}

// evalRuns executes the Table 4 protocol for one design: stream multiple
// videos (the paper evaluates 5 uploaded videos) over multiple bandwidth
// traces, infer with CSI, and score best and worst candidate sequences
// against ground truth, with and without displayed-chunk information.
func evalRuns(design session.Design, sc Scale) ([]runOutcome, error) {
	runs, err := sweepGrid(design, sc, "eval", 900, 5, sc.Reps)
	if err != nil {
		return nil, err
	}
	return runSweep(design, sc, "eval", runs, func(r sweepRun, run *capture.Run, g *guard.Ctx) runOutcome {
		o := runOutcome{}
		p := core.Params{
			MediaHost: r.man.Host, Mux: design == session.SQ,
			Obs: sc.Obs.Child(), Guard: g, Stages: sc.Stages,
			HalfCache: sc.HalfCache,
		}
		inf, err := core.Infer(r.man, run.Trace, p)
		if err != nil {
			o.err = err
		} else {
			o.best, o.worst, o.err = inf.AccuracyRange(run.Truth)
			o.uniqueSeq = inf.SequenceCount == 1
			for _, g := range inf.Groups {
				o.groups = append(o.groups, len(g.ReqTimes))
			}
		}
		p.Display = run.Display
		if infd, err := core.Infer(r.man, run.Trace, p); err == nil {
			o.bestDisp, o.worstDisp, _ = infd.AccuracyRange(run.Truth)
			o.uniqueDisp = infd.SequenceCount == 1
		}
		return o
	})
}

// evalCache memoizes evalRuns per (design, scale) so that Groups and Table4
// share the expensive SQ evaluations within one process.
var (
	evalCacheMu sync.Mutex
	evalCache   = map[string][]runOutcome{}
)

func evalRunsCached(design session.Design, sc Scale) ([]runOutcome, error) {
	key := fmt.Sprintf("%v/%+v", design, sc)
	evalCacheMu.Lock()
	if outs, ok := evalCache[key]; ok {
		evalCacheMu.Unlock()
		return outs, nil
	}
	evalCacheMu.Unlock()
	outs, err := evalRuns(design, sc)
	if err != nil {
		return nil, err
	}
	evalCacheMu.Lock()
	evalCache[key] = outs
	evalCacheMu.Unlock()
	return outs, nil
}

// Table4 reproduces Table 4 for the given designs: the fraction of runs
// whose best/worst inferred sequence matches ground truth fully, exceeds
// 95% accuracy, and the 5th percentile of accuracy — with and without
// displayed-chunk side information.
func Table4(sc Scale, designs ...session.Design) (*Table, error) {
	if len(designs) == 0 {
		designs = []session.Design{session.CH, session.SH, session.CQ, session.SQ}
	}
	t := &Table{
		Title: "Table 4 — inference accuracy per ABR design",
		Header: []string{
			"case", "runs",
			"best:100%", "best:>95%", "best:5pct",
			"worst:100%", "worst:>95%", "worst:5pct",
			"disp worst:100%", "disp worst:>95%", "disp worst:5pct",
			"unique", "disp unique",
		},
		Notes: []string{
			"Columns are % of runs (5pct columns: 5th percentile of accuracy, in %).",
			"Paper: best output contains ground truth in ~100% of runs for all designs;",
			"SQ worst-case collapses without display info and recovers with it.",
		},
	}
	for _, d := range designs {
		outs, err := evalRunsCached(d, sc)
		if err != nil {
			return nil, err
		}
		var best, worst, worstD []float64
		uniq, uniqD, failed := 0, 0, 0
		for _, o := range outs {
			if o.err != nil {
				failed++
			}
			best = append(best, o.best)
			worst = append(worst, o.worst)
			worstD = append(worstD, o.worstDisp)
			if o.uniqueSeq {
				uniq++
			}
			if o.uniqueDisp {
				uniqD++
			}
		}
		n := float64(len(outs))
		t.Rows = append(t.Rows, []string{
			d.String(), fmt.Sprintf("%d", len(outs)),
			pct(stats.FractionAtLeast(best, 0.9999)), pct(stats.FractionAbove(best, 0.95)), pct(stats.Percentile(best, 5)),
			pct(stats.FractionAtLeast(worst, 0.9999)), pct(stats.FractionAbove(worst, 0.95)), pct(stats.Percentile(worst, 5)),
			pct(stats.FractionAtLeast(worstD, 0.9999)), pct(stats.FractionAbove(worstD, 0.95)), pct(stats.Percentile(worstD, 5)),
			pct(float64(uniq) / n), pct(float64(uniqD) / n),
		})
		if failed > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%v: %d/%d runs failed inference (scored 0)", d, failed, len(outs)))
		}
	}
	return t, nil
}

// Groups reproduces the §5.3.2 statistic: the distribution of SQ traffic
// group sizes (the paper reports 99.7% of groups hold <= 10 requests).
func Groups(sc Scale) (*Table, error) {
	outs, err := evalRunsCached(session.SQ, sc)
	if err != nil {
		return nil, err
	}
	var sizes []float64
	le10 := 0
	total := 0
	for _, o := range outs {
		for _, g := range o.groups {
			sizes = append(sizes, float64(g))
			total++
			if g <= 10 {
				le10++
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("experiments: no SQ groups observed")
	}
	s := stats.Summarize(sizes)
	t := &Table{
		Title:  "Traffic group sizes under transport multiplexing (§5.3.2)",
		Header: []string{"groups", "median", "p95", "max", "% <= 10 requests"},
		Rows: [][]string{{
			fmt.Sprintf("%d", total), f1(s.Median), f1(s.P95), f1(s.Max),
			pct(float64(le10) / float64(total)),
		}},
		Notes: []string{"Paper: 99.7% of groups contain at most 10 requests."},
	}
	return t, nil
}
