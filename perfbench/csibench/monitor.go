package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/stream"
)

// monitorOptions is csi-monitord's replay configuration at daemon
// defaults, with provisional re-solves every 500 packets as in the
// repository's replay gate.
func monitorOptions(ms *monitorStream) stream.Options {
	return stream.Options{
		Manifest:        ms.man,
		Params:          core.Params{MediaHost: ms.man.Host, Degrade: true},
		ShedPolicy:      stream.ShedBlock,
		ResolveEvery:    500,
		QuarantineAfter: 3,
		Obs:             obs.New(nil, nil),
	}
}

// repOutcome is one replay of the whole stream through a fresh monitor.
type repOutcome struct {
	elapsed time.Duration // first frame read until Drain returned
	results []byte        // stream.WriteResults of the drained results
	failed  int           // results with an error or an eviction-type reason
	reg     *obs.Registry // the monitor's stream.* counters
	stateMB float64       // largest state directory seen (traced durable reps)
	finalMS []float64     // close frame accepted -> OnResult, per flow (traced)
}

// replay feeds the JSONL stream through stream.NewFrameReader into a new
// Monitor and drains it. A non-nil tracer adds spans and per-call timing
// at every layer boundary; durable reps run on a fresh state directory.
func replay(ms *monitorStream, stateDir string, tr *tracer, st *stageTimer, rep int) (*repOutcome, error) {
	opts := monitorOptions(ms)
	if stateDir != "" {
		d, err := stream.OpenDurability(stateDir, stream.DurabilityOptions{
			SyncPolicy: stream.SyncInterval, SyncEvery: 256, SnapshotEvery: 4096, Obs: opts.Obs,
		})
		if err != nil {
			return nil, err
		}
		opts.Durable = d
	}
	repID := fmt.Sprintf("rep-%d", rep)
	root := tr.begin("stream.replay", repID, -1)
	defer tr.end(root)
	var mu sync.Mutex
	closedAt := make(map[string]time.Time)
	resultAt := make(map[string]time.Time)
	firstAt := make(map[string]time.Time)
	if tr != nil {
		opts.Params.Stages = st
		st.within(repID, root)
		opts.OnResult = func(r stream.Result) {
			now := time.Now()
			mu.Lock()
			resultAt[r.Flow] = now
			mu.Unlock()
		}
	}
	out := &repOutcome{reg: opts.Obs.Metrics()}
	m := stream.New(opts)
	fr := stream.NewFrameReader(bytes.NewReader(ms.jsonl))
	var decode, ingest time.Duration
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			m.Drain()
			return nil, err
		}
		if tr == nil {
			m.Ingest(f)
			continue
		}
		t1 := time.Now()
		m.Ingest(f)
		t2 := time.Now()
		decode += t1.Sub(t0)
		ingest += t2.Sub(t1)
		mu.Lock()
		if _, ok := firstAt[f.Flow]; !ok {
			firstAt[f.Flow] = t1
		}
		if f.Close {
			closedAt[f.Flow] = t2
		}
		mu.Unlock()
		if stateDir != "" && n%4096 == 0 {
			out.stateMB = max(out.stateMB, dirMB(stateDir))
		}
	}
	sp := tr.begin("stream.drain", repID, root)
	results := m.Drain()
	out.elapsed = time.Since(start)
	tr.end(sp)

	var buf bytes.Buffer
	if err := stream.WriteResults(&buf, results); err != nil {
		return nil, err
	}
	out.results = buf.Bytes()
	for _, r := range results {
		if r.Err != "" || (r.Reason != stream.ReasonClose && r.Reason != stream.ReasonDrain) {
			out.failed++
			fmt.Fprintf(os.Stderr, "csibench: flow %s: reason %s err %q\n", r.Flow, r.Reason, r.Err)
		}
	}
	if tr != nil {
		tr.add("stream.decode", decode)
		tr.add("stream.ingest", ingest)
		if stateDir != "" {
			out.stateMB = max(out.stateMB, dirMB(stateDir))
		}
		for _, r := range results {
			done, ok := resultAt[r.Flow]
			if !ok {
				continue
			}
			flow := tr.spanAt("stream.flow", r.Flow, root, firstAt[r.Flow], done)
			if closed, ok := closedAt[r.Flow]; ok {
				tr.spanAt("stream.final", r.Flow, flow, closed, done)
				out.finalMS = append(out.finalMS, float64(done.Sub(closed))/float64(time.Millisecond))
			}
		}
	}
	return out, nil
}

// runMonitor replays the packed stream through fresh monitors until the
// measured time is up (at least one replay), then checks every replay's
// results against stream.Batch over the same frames.
func runMonitor(c config, durable bool) (*result, error) {
	flows, minSec, maxSec, spread := 6, 120.0, 600.0, 120.0
	if durable {
		flows, minSec, maxSec, spread = 6, 40, 80, 30
	}
	if c.small {
		flows, minSec, maxSec, spread = 2, 20, 40, 10
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	ms, setupS, err := timedSetups(setupReps, func() (*monitorStream, error) {
		return monitorInputs(tr, c.seed, flows, minSec, maxSec, spread)
	}, func(ms *monitorStream) [32]byte { return sha256.Sum256(ms.jsonl) })
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.set("setup_s", setupS)

	stateRoot := ""
	if durable {
		stateRoot = filepath.Join(c.outDir, fmt.Sprintf("monitor-state-%d", os.Getpid()))
		defer os.RemoveAll(stateRoot)
	}
	var reps []*repOutcome
	traced := make(map[int]bool)
	var rt runtimeTotals
	st := &stageTimer{tr: tr}
	freeSetupMemory()
	if !c.trace {
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting peak RSS: %w", err)
		}
	}
	start := time.Now()
	for rep := 0; ; rep++ {
		dir := ""
		if durable {
			dir = filepath.Join(stateRoot, fmt.Sprintf("rep-%d", rep))
		}
		// Traced runs alternate untraced and traced replays.
		var repTr *tracer
		if c.trace && rep%2 == 1 {
			repTr = tr
			traced[rep] = true
		}
		var before runtimeSample
		if repTr != nil {
			before = sampleRuntime()
		}
		out, err := replay(ms, dir, repTr, st, rep)
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", rep, err)
		}
		if repTr != nil {
			rt.add(before, sampleRuntime())
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(os.Stderr, "csibench: replay %d (traced %v): %d frames in %.3f s, %.0f frames/s\n",
			rep, repTr != nil, ms.frames, out.elapsed.Seconds(), float64(ms.frames)/out.elapsed.Seconds())
		reps = append(reps, out)
		if time.Since(start) >= c.seconds && (!c.trace || rep%2 == 1) {
			break
		}
	}
	if !c.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", rss)
	}

	// The gate: every replay's bytes equal the batch pipeline's, with
	// nothing shed or evicted.
	frames, err := stream.ReadFrames(bytes.NewReader(ms.jsonl))
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := stream.WriteResults(&want, stream.Batch(frames, monitorOptions(ms))); err != nil {
		return nil, err
	}
	var framesPerS []float64
	for i, out := range reps {
		res.Attempted += flows
		res.Failed += out.failed
		if !bytes.Equal(out.results, want.Bytes()) {
			res.fail("replay %d: monitor results differ from stream.Batch over the same frames", i)
		}
		for _, name := range []string{"stream.flows_evicted", "stream.shed_total"} {
			if v := out.reg.Counter(name).Value(); v != 0 {
				res.fail("replay %d: %s = %d, want 0", i, name, v)
			}
		}
		if !traced[i] {
			framesPerS = append(framesPerS, float64(ms.frames)/out.elapsed.Seconds())
		}
	}
	res.set("frames_per_s", median(framesPerS))
	best, worst := flowAccuracy(res, ms, frames)
	res.set("accuracy_pct", 100*best)
	res.set("worst_accuracy_pct", 100*worst)

	if c.trace {
		monitorLayers(res, tr, ms, reps, traced, flows)
		rt.report(res)
		if err := writeSpans(c, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// monitorLayers sets the per-layer metrics of the traced replays (per
// traced replay unless named otherwise) and the tracing overhead.
func monitorLayers(res *result, tr *tracer, ms *monitorStream, reps []*repOutcome, traced map[int]bool, flows int) {
	var plain, withTrace time.Duration
	var solves, failures, walBytes, fsyncs, snaps int64
	var stateMB, finalMS []float64
	n := 0
	for i, out := range reps {
		if !traced[i] {
			plain += out.elapsed
			continue
		}
		n++
		withTrace += out.elapsed
		solves += out.reg.Counter("stream.solves_total").Value()
		failures += out.reg.Counter("stream.solve_failures").Value()
		walBytes += out.reg.Counter("stream.wal_bytes").Value()
		fsyncs += out.reg.Counter("stream.wal_fsyncs").Value()
		snaps += out.reg.Counter("stream.snapshots_total").Value()
		stateMB = append(stateMB, out.stateMB)
		finalMS = append(finalMS, out.finalMS...)
	}
	ops := float64(n)
	plainN := float64(len(reps) - n)
	res.set("session.run_s", tr.busyS("session.run")/setupReps)
	res.set("session.packets", float64(ms.frames-flows))
	for _, name := range []string{"core.estimate", "core.candidates", "core.dp", "stream.decode", "stream.drain"} {
		res.set(name+"_s", tr.busyS(name)/ops)
	}
	res.set("stream.ingest_wait_s", tr.busyS("stream.ingest")/ops)
	res.set("stream.solves_per_flow", float64(solves)/ops/float64(flows))
	res.set("stream.solve_failures", float64(failures)/ops)
	res.set("stream.final_ms_p50", median(finalMS))
	res.set("stream.wal_bytes_per_frame", float64(walBytes)/ops/float64(ms.frames))
	res.set("stream.wal_fsyncs", float64(fsyncs)/ops)
	res.set("stream.snapshots", float64(snaps)/ops)
	res.set("stream.state_dir_mb", median(stateMB))
	perPlain := plain.Seconds() / plainN
	res.set("trace.overhead_pct", 100*(withTrace.Seconds()/ops-perPlain)/perPlain)
}

// flowAccuracy infers every flow of the stream once (as the batch pipeline
// does) and scores it against that flow's truth log: mean best and worst
// sequence accuracy over the flows.
func flowAccuracy(res *result, ms *monitorStream, frames []stream.Frame) (best, worst float64) {
	traces := make(map[string]*capture.Trace)
	taps := make(map[string]func(packet.View, float64))
	var order []string
	for _, f := range frames {
		if traces[f.Flow] == nil {
			traces[f.Flow] = capture.NewTrace()
			taps[f.Flow] = traces[f.Flow].Tap()
			order = append(order, f.Flow)
		}
		if !f.Close {
			taps[f.Flow](f.Packet, f.Packet.Time)
		}
	}
	p := monitorOptions(ms).Params
	for _, name := range order {
		inf, err := core.Infer(ms.man, traces[name], p)
		if err != nil {
			res.fail("flow %s: batch inference: %v", name, err)
			continue
		}
		b, w, err := inf.AccuracyRange(ms.truth[name])
		if err != nil {
			res.fail("flow %s: accuracy: %v", name, err)
			continue
		}
		best += b
		worst += w
	}
	return best / float64(len(order)), worst / float64(len(order))
}
