package experiments

import (
	"fmt"

	"csi/internal/capture"
	"csi/internal/guard"
	"csi/internal/guard/runner"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/session"
)

// sweepRun is one cell of a session grid: a video streamed over one
// bandwidth trace with one seed.
type sweepRun struct {
	man  *media.Manifest
	bw   *netem.BandwidthTrace
	seed int64
}

// sweepGrid encodes min(sc.Videos, maxVideos) videos named prefix-v and
// crosses them with the cellular trace set and reps repetitions. Run seeds
// are v*1000 + trace*10 + rep, so a grid is the same whichever driver
// builds it.
func sweepGrid(d session.Design, sc Scale, prefix string, seed0 int64, maxVideos, reps int) ([]sweepRun, error) {
	audio := 0
	if d.Separate() {
		audio = 1
	}
	traces := netem.CellularTraceSet(77, sc.Traces)
	var runs []sweepRun
	for v := 0; v < min(sc.Videos, maxVideos); v++ {
		man, err := media.Encode(media.EncodeConfig{
			Name: fmt.Sprintf("%s-%d", prefix, v), Seed: seed0 + int64(v)*13,
			DurationSec: 780 + 300*float64(v), ChunkDur: 5,
			TargetPASR:  1.3 + 0.2*float64(v%4),
			AudioTracks: audio,
		})
		if err != nil {
			return nil, err
		}
		for ti, bw := range traces {
			for rep := 0; rep < reps; rep++ {
				runs = append(runs, sweepRun{man: man, bw: bw, seed: int64(v*1000 + ti*10 + rep)})
			}
		}
	}
	return runs, nil
}

// runSweep streams every run of a grid under the supervised runner and
// scores the captured session with the task's guard, so a stuck or
// panicking run is bounded and contained instead of wedging the sweep.
// A run is skipped when its trace is too slow to stream five requests, when
// an interrupt cancelled it (a drain artifact; budget-exhausted runs do
// count — their rows are what an operator with that budget gets), and
// when its task panicked or was cancelled. Any other task error fails the
// sweep. The usable outcomes come back in grid order.
func runSweep[T any](d session.Design, sc Scale, name string, runs []sweepRun, score func(sweepRun, *capture.Run, *guard.Ctx) T) ([]T, error) {
	results := make([]T, len(runs))
	usable := make([]bool, len(runs))
	tasks := make([]runner.Task, len(runs))
	for i, r := range runs {
		tasks[i] = runner.Task{
			Name: fmt.Sprintf("%s/%v/seed-%d", name, d, r.seed),
			Run: func(g *guard.Ctx) error {
				res, err := session.Run(session.Config{
					Design: d, Manifest: r.man, Bandwidth: r.bw,
					Duration: sc.SessionSec, Seed: r.seed,
					Obs: sc.Obs.Child(),
				})
				if err != nil {
					return fmt.Errorf("experiments: %s sweep seed %d: %w", name, r.seed, err)
				}
				if len(res.Run.Truth) < 5 {
					return nil
				}
				o := score(r, res.Run, g)
				if g.Code() == guard.CodeCancelled {
					return nil
				}
				results[i], usable[i] = o, true
				return nil
			},
		}
	}
	var out []T
	for i, r := range runner.Run(tasks, runnerPolicy(sc)) {
		if r.Err != nil && !r.Panicked && !r.Cancelled {
			return nil, r.Err
		}
		if usable[i] {
			out = append(out, results[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no usable %s-sweep runs for %v", name, d)
	}
	return out, nil
}
