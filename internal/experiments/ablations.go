package experiments

import (
	"fmt"

	"csi/internal/core"
	"csi/internal/guard"
	"csi/internal/guard/runner"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/session"
)

// ablVariant is one parameterisation of an ablation experiment.
type ablVariant struct {
	name string
	p    core.Params
}

// Ablations quantifies the design choices DESIGN.md calls out:
//
//   - the HTTP header discount in the estimator (without it, small chunks
//     blow the Property-1 bound and no-MUX inference collapses);
//   - the SP2 simultaneous-request split points (without them, MUX groups
//     grow and ambiguity rises);
//   - displayed-chunk pruning (already covered in Table 4; repeated here on
//     a single run for direct comparison).
func Ablations(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablations — contribution of individual design choices",
		Header: []string{"experiment", "variant", "ok", "groups", "sequences", "best %", "worst %"},
	}

	// --- Header discount (SH: separate audio makes small chunks common).
	// A 100 kbit/s bottom rung yields ~25-60 KB chunks, where undiscounted
	// HTTP response headers exceed the 1% Property-1 bound.
	ladder := append([]media.Rung{{Bitrate: 100_000, Width: 192, Height: 108}}, media.DefaultLadder...)
	manSH, err := media.Encode(media.EncodeConfig{
		Name: "abl-sh", Seed: 23, DurationSec: 420, ChunkDur: 5, TargetPASR: 1.5, AudioTracks: 1,
		Ladder: ladder,
	})
	if err != nil {
		return nil, err
	}
	// Low bandwidth keeps the player on the lowest track, whose chunks are
	// small enough that undiscounted response headers blow the Property-1
	// bound.
	resSH, err := session.Run(session.Config{
		Design: session.SH, Manifest: manSH,
		Bandwidth: netem.GenerateCellular(netem.CellularConfig{Seed: 2, MeanBps: 500_000, Variability: 0.3}),
		Duration:  sc.SessionSec, Seed: 2,
		Obs: sc.Obs.Child(),
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, ablRows("header-discount", manSH, resSH, []ablVariant{
		{"with discount (default)", core.Params{MediaHost: manSH.Host}},
		{"no header discount", core.Params{MediaHost: manSH.Host, MinResponseHeaderBytes: -1}},
	}, sc)...)

	// --- SP2 split points (SQ).
	resSQ, err := session.Run(session.Config{
		Design: session.SQ, Manifest: manSH,
		Bandwidth: netem.GenerateCellular(netem.CellularConfig{Seed: 4, MeanBps: 5_000_000, Variability: 0.4}),
		Duration:  sc.SessionSec, Seed: 4,
		Obs: sc.Obs.Child(),
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, ablRows("sq-split-points", manSH, resSQ, []ablVariant{
		{"SP1+SP2 (default)", core.Params{MediaHost: manSH.Host, Mux: true}},
		{"SP1 only", core.Params{MediaHost: manSH.Host, Mux: true, DisableSP2: true}},
		{"SP2 only", core.Params{MediaHost: manSH.Host, Mux: true, IdleSplitSec: 1e9}},
		{"SP1+SP2+display", core.Params{MediaHost: manSH.Host, Mux: true, Display: resSQ.Run.Display}},
	}, sc)...)
	return t, nil
}

// ablRows scores each variant as one supervised runner task; rows land in
// variant order. A task that fails outright (contained panic, cancellation)
// still yields a row so the table shape is stable.
func ablRows(exp string, man *media.Manifest, res *session.Result, variants []ablVariant, sc Scale) [][]string {
	rows := make([][]string, len(variants))
	tasks := make([]runner.Task, len(variants))
	for vi, v := range variants {
		vi, v := vi, v
		tasks[vi] = runner.Task{
			Name: fmt.Sprintf("ablation/%s/%s", exp, v.name),
			Run: func(g *guard.Ctx) error {
				p := v.p
				p.Obs = sc.Obs.Child()
				p.Guard = g
				p.Stages = sc.Stages
				p.HalfCache = sc.HalfCache
				rows[vi] = ablRow(exp, v.name, man, res, p)
				return nil
			},
		}
	}
	rres := runner.Run(tasks, runnerPolicy(sc))
	for vi, r := range rres {
		if r.Err != nil {
			rows[vi] = []string{exp, variants[vi].name, "FAIL: " + truncateErr(r.Err), "-", "-", "-", "-"}
		}
	}
	return rows
}

func ablRow(exp, name string, man *media.Manifest, res *session.Result, p core.Params) []string {
	inf, err := core.Infer(man, res.Run.Trace, p)
	if err != nil {
		return []string{exp, name, "FAIL: " + truncateErr(err), "-", "-", "-", "-"}
	}
	best, worst, err := inf.AccuracyRange(res.Run.Truth)
	if err != nil {
		return []string{exp, name, "eval: " + truncateErr(err), "-", "-", "-", "-"}
	}
	ok := "yes"
	if len(inf.Warnings) > 0 {
		// A budget-truncated or degraded inference still rows up, but
		// labelled so a bounded sweep is not mistaken for a clean one.
		ok = "partial: " + inf.Warnings[0].Code
	}
	return []string{
		exp, name, ok,
		fmt.Sprintf("%d", len(inf.Groups)),
		fmt.Sprintf("%g", inf.SequenceCount),
		pct(best), pct(worst),
	}
}

func truncateErr(err error) string {
	s := err.Error()
	if len(s) > 48 {
		s = s[:48] + "…"
	}
	return s
}
