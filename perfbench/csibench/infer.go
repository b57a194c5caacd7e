package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/stream"
)

// sqOutcome is what the gate keeps of a pool session's first inference.
type sqOutcome struct {
	done        bool
	best, worst float64
	digest      [32]byte // rendered result, compared across re-inferences
}

// sqRun is one infer-sq run: the session pool and the gate's record of it.
type sqRun struct {
	pool     []sqSession
	outcomes []sqOutcome
	res      *result
}

// params is the default SQ configuration: mux analysis, no half cache, no
// display information.
func (r *sqRun) params(i int) core.Params {
	return core.Params{MediaHost: r.pool[i].man.Host, Mux: true}
}

// infer runs one cold inference of pool session i on a fresh
// capture.Trace and returns its duration.
func (r *sqRun) infer(i int) time.Duration {
	s := &r.pool[i]
	r.res.Attempted++
	t0 := time.Now()
	inf, err := core.Infer(s.man, freshTrace(s.trace), r.params(i))
	d := time.Since(t0)
	r.finish(i, inf, err)
	return d
}

// inferTraced is infer with a span around each layer call: capture.ByConn
// on the fresh trace (so the inference finds it memoized), then
// core.Infer, whose stages report through Params.Stages and whose counters
// land in the Params.Obs registry.
func (r *sqRun) inferTraced(i int, tr *tracer, st *stageTimer, reg *obs.Tracer) time.Duration {
	s := &r.pool[i]
	r.res.Attempted++
	root := tr.begin("session", s.name, -1)
	t0 := time.Now()
	fresh := freshTrace(s.trace)
	sp := tr.begin("capture.byconn", s.name, root)
	fresh.ByConn()
	tr.end(sp)
	p := r.params(i)
	p.Stages, p.Obs = st, reg
	sp = tr.begin("core.infer", s.name, root)
	st.within(s.name, sp)
	inf, err := core.Infer(s.man, fresh, p)
	tr.end(sp)
	d := time.Since(t0)
	tr.end(root)
	r.finish(i, inf, err)
	return d
}

// finish counts a failed inference against the run or checks a good one.
func (r *sqRun) finish(i int, inf *core.Inference, err error) {
	if err != nil {
		r.res.Failed++
		fmt.Fprintf(os.Stderr, "csibench: %s: %v\n", r.pool[i].name, err)
		return
	}
	r.check(i, inf)
}

// check scores an inference against the truth log and, when the session
// was inferred before, checks that the cold re-inference rendered the same
// result.
func (r *sqRun) check(i int, inf *core.Inference) {
	s, o := &r.pool[i], &r.outcomes[i]
	best, worst, err := inf.AccuracyRange(s.truth)
	if err != nil {
		r.res.fail("%s: accuracy: %v", s.name, err)
		return
	}
	rendered, err := json.Marshal(stream.NewResult(s.name, stream.ReasonClose, len(s.trace.Packets), inf, nil, nil, s.man))
	if err != nil {
		r.res.fail("%s: rendering: %v", s.name, err)
		return
	}
	digest := sha256.Sum256(rendered)
	if !o.done {
		*o = sqOutcome{done: true, best: best, worst: worst, digest: digest}
	} else if digest != o.digest {
		r.res.fail("%s: a cold re-inference produced a different result", s.name)
	}
}

// runInferSQ runs cold core.Infer serially over a pool of SQ sessions,
// cycling through the pool until the measured time is up. Pool sessions
// the measured phase did not reach are inferred afterwards, untimed, so
// the accuracy metrics always cover the whole pool.
func runInferSQ(c config) (*result, error) {
	n, titles, dur := 20, 3, 30.0
	if c.small {
		n, titles, dur = 2, 2, 30
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	pool, setupS, err := timedSetups(setupReps, func() ([]sqSession, error) {
		return sqInputs(tr, c.seed, n, titles, dur)
	}, sqDigest)
	if err != nil {
		return nil, err
	}
	r := &sqRun{pool: pool, outcomes: make([]sqOutcome, len(pool)), res: &result{}}
	r.res.set("setup_s", setupS)

	freeSetupMemory()
	if c.trace {
		// The traced run reports per-layer metrics only; accuracy is an
		// end-to-end metric.
		r.traced(c, tr)
		if err := writeSpans(c, tr); err != nil {
			return nil, err
		}
		return r.res, nil
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	// Each timed inference is one sample; the throughputs are taken at the
	// median sample, so a stall hitting a few sessions moves them little.
	var perSession, framesPerS []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < c.seconds; i++ {
		d := r.infer(i % n).Seconds()
		perSession = append(perSession, d)
		framesPerS = append(framesPerS, float64(len(pool[i%n].trace.Packets))/d)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.res.set("peak_rss_mb", rss)
	r.res.set("sessions_per_s", 1/median(perSession))
	r.res.set("frames_per_s", median(framesPerS))

	var best, worst float64
	for i := range pool {
		if !r.outcomes[i].done {
			r.infer(i)
		}
		best += r.outcomes[i].best
		worst += r.outcomes[i].worst
	}
	r.res.set("accuracy_pct", 100*best/float64(n))
	r.res.set("worst_accuracy_pct", 100*worst/float64(n))
	return r.res, nil
}

// traced alternates an untraced and a traced cold inference of the same
// pool session until the measured time is up. Per-layer metrics are per
// traced session; the overhead compares each pair.
func (r *sqRun) traced(c config, tr *tracer) {
	st := &stageTimer{tr: tr}
	reg := obs.New(nil, nil)
	var rt runtimeTotals
	var plain, traced time.Duration
	packets := 0
	for i := range r.pool {
		packets += len(r.pool[i].trace.Packets)
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < c.seconds; i++ {
		plain += r.infer(i % len(r.pool))
		before := sampleRuntime()
		traced += r.inferTraced(i%len(r.pool), tr, st, reg)
		rt.add(before, sampleRuntime())
	}
	ops := float64(rt.ops)
	res := r.res
	res.set("session.run_s", tr.busyS("session.run")/setupReps)
	res.set("session.packets", float64(packets))
	for _, name := range []string{"capture.byconn", "core.estimate", "core.candidates", "core.dp"} {
		res.set(name+"_s", tr.busyS(name)/ops)
	}
	m := reg.Metrics()
	calls := float64(m.Counter("core.window_calls").Value())
	rejects := float64(m.Counter("core.window_rejects").Value())
	hits := float64(m.Counter("core.half_cache_hits").Value())
	misses := float64(m.Counter("core.half_cache_misses").Value())
	res.set("core.window_calls", calls/ops)
	res.set("core.window_rejects", rejects/ops)
	res.set("core.window_truncations", float64(m.Counter("core.window_truncations").Value())/ops)
	res.set("core.half_cache_hits", hits/ops)
	res.set("core.half_cache_misses", misses/ops)
	if calls > 0 {
		res.set("core.window_useful_ratio", 1-rejects/calls)
	}
	if hits+misses > 0 {
		res.set("core.half_cache_hit_ratio", hits/(hits+misses))
	}
	rt.report(res)
	res.set("trace.overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
}
