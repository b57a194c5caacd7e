package stream

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/experiments"
	"csi/internal/faults"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/media/mediatest"
	"csi/internal/netem"
	"csi/internal/obs"
	"csi/internal/obs/live"
	"csi/internal/session"
	"csi/internal/testleak"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testManifest(t *testing.T, d session.Design) *media.Manifest {
	t.Helper()
	audio := 0
	if d.Separate() {
		audio = 1
	}
	return mediatest.Encode(t, media.EncodeConfig{
		Name: "streamtest", Seed: 23, DurationSec: 300, ChunkDur: 5,
		TargetPASR: 1.5, AudioTracks: audio,
	})
}

func testSession(t *testing.T, man *media.Manifest, d session.Design, seed int64, durSec float64) *capture.Trace {
	t.Helper()
	res, err := session.Run(session.Config{
		Design:    d,
		Manifest:  man,
		Bandwidth: netem.GenerateCellular(netem.CellularConfig{Seed: seed, MeanBps: 5_000_000, Variability: 0.4}),
		Duration:  durSec,
		Seed:      seed,
	})
	if err != nil {
		t.Fatalf("session.Run(%v): %v", d, err)
	}
	return res.Run.Trace
}

func replayOpts(man *media.Manifest, mux bool) Options {
	return Options{
		Manifest:   man,
		Params:     core.Params{MediaHost: "media.example.com", Mux: mux, Degrade: true},
		ShedPolicy: ShedBlock,
	}
}

// replayThrough feeds frames through a monitor synchronously (blocking
// ingest) and drains it — the -replay code path.
func replayThrough(t *testing.T, frames []Frame, opts Options) []Result {
	t.Helper()
	mon := New(opts)
	for _, f := range frames {
		mon.Ingest(f)
	}
	return mon.Drain()
}

func marshalResults(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResults(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayMatchesBatch pins the tentpole determinism gate: a monitor in
// replay configuration — incremental solves every 40 packets, shared half
// cache, worker pool racing against ingest — must serialize byte-identically
// to the plain offline batch pipeline over the same frame stream. Delta is a
// CQ flow, so the carried QUIC walk is held to the same gate. With a small
// work budget every solve gets a fresh guard, so the final solve must
// truncate exactly where the batch solve of the same flow does: 30000 steps
// stop beta and gamma partway through Step 1 and leave alpha and delta
// whole.
func TestReplayMatchesBatch(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	// CQ streams the ladder's video tracks alone; the monitor matches the
	// flow against the full ladder like every other flow.
	video := &media.Manifest{Name: man.Name, Host: man.Host, ChunkDur: man.ChunkDur}
	for _, ti := range man.VideoTracks() {
		video.Tracks = append(video.Tracks, man.Tracks[ti])
	}
	runs := map[string]*capture.Trace{
		"alpha": testSession(t, man, session.SH, 41, 90),
		"beta":  testSession(t, man, session.SH, 42, 90),
		"gamma": testSession(t, man, session.SH, 43, 60),
		"delta": testSession(t, video, session.CQ, 44, 60),
	}
	frames := Pack(runs)
	for _, budget := range []int64{0, 30000} {
		opts := replayOpts(man, false)
		opts.ResolveEvery = 40
		opts.QuarantineAfter = 3
		opts.WorkBudget = budget
		opts.Params.HalfCache = core.NewHalfCache(64 << 20)
		batchOpts := replayOpts(man, false)
		batchOpts.WorkBudget = budget

		got := marshalResults(t, replayThrough(t, frames, opts))
		want := marshalResults(t, Batch(frames, batchOpts))
		if !bytes.Equal(got, want) {
			t.Fatalf("work budget %d: replay output diverged from batch:\nreplay:\n%s\nbatch:\n%s", budget, got, want)
		}
		if truncated := bytes.Contains(want, []byte("deadline_exceeded")); truncated != (budget > 0) {
			t.Fatalf("work budget %d: batch truncated = %v, want %v:\n%s", budget, truncated, budget > 0, want)
		}
	}
}

// TestReplayMatchesBatchMux is the same gate on the SQ path, where the
// half-enumeration cache and the 12-digit sequence-count rendering carry
// the determinism contract.
func TestReplayMatchesBatchMux(t *testing.T) {
	if testing.Short() {
		t.Skip("MUX fixtures are slow")
	}
	testleak.Check(t)
	man := testManifest(t, session.SQ)
	// Shorter sessions and a coarser provisional cadence than the SH test:
	// every provisional solve on the SQ path is a full mux candidate search
	// (whose cost grows superlinearly with chunk count), and the parity
	// contract is the same whether it fires 3 or 50 times per flow.
	runs := map[string]*capture.Trace{
		"sq-a": testSession(t, man, session.SQ, 44, 30),
		"sq-b": testSession(t, man, session.SQ, 45, 30),
	}
	frames := Pack(runs)
	opts := replayOpts(man, true)
	opts.ResolveEvery = 400
	opts.Params.HalfCache = core.NewHalfCache(128 << 20)

	got := marshalResults(t, replayThrough(t, frames, opts))
	bopts := replayOpts(man, true)
	bopts.Params.HalfCache = opts.Params.HalfCache // warm cache never changes results
	want := marshalResults(t, Batch(frames, bopts))
	if !bytes.Equal(got, want) {
		t.Fatalf("MUX replay output diverged from batch:\nreplay:\n%s\nbatch:\n%s", got, want)
	}
}

// TestReplayGolden pins the replay serialization against a checked-in
// golden (refresh with -update): the full frame->monitor->result path must
// stay byte-stable across refactors, machines and runs.
func TestReplayGolden(t *testing.T) {
	man := testManifest(t, session.SH)
	runs := map[string]*capture.Trace{
		"g1": testSession(t, man, session.SH, 51, 60),
		"g2": testSession(t, man, session.SH, 52, 60),
	}
	frames := Pack(runs)
	opts := replayOpts(man, false)
	opts.ResolveEvery = 50
	got := marshalResults(t, replayThrough(t, frames, opts))

	golden := filepath.Join("testdata", "replay_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replay output diverged from golden %s (re-run with -update if intended)\ngot:\n%s", golden, got)
	}
}

// TestBlockResolveCadence pins the ShedBlock solve cadence: every closed
// flow is solved at each ResolveEvery-th packet and once at its close, so
// the solve count depends on the frames alone, not on how fast the workers
// run against ingest.
func TestBlockResolveCadence(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	runs := map[string]*capture.Trace{
		"c1": testSession(t, man, session.SH, 53, 45),
		"c2": testSession(t, man, session.SH, 54, 30),
	}
	const every = 50
	want := int64(0)
	for _, tr := range runs {
		want += int64(len(tr.Packets)/every + 1)
	}
	frames := Pack(runs)
	for rep := 0; rep < 2; rep++ {
		obsT := obs.New(nil, nil)
		opts := replayOpts(man, false)
		opts.ResolveEvery = every
		opts.Obs = obsT
		replayThrough(t, frames, opts)
		if got := obsT.Metrics().Counter("stream.solves_total").Value(); got != want {
			t.Fatalf("replay %d: stream.solves_total = %d, want %d", rep, got, want)
		}
	}
}

// TestOverloadEvictsAndSurvives is the robustness acceptance test: 10x the
// flow-table cap of concurrently interleaved flows. The monitor must bound
// its state via LRU eviction, degrade every evicted flow to a structured
// partial result, keep the surviving flows' inferences correct, and leave
// no goroutines or buffered bytes behind.
func TestOverloadEvictsAndSurvives(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 61, 60)

	const maxFlows = 4
	const flows = 10 * maxFlows
	names := make([]string, flows)
	for i := range names {
		names[i] = fmt.Sprintf("flow-%02d", i)
	}
	obsT := obs.New(nil, nil)
	opts := replayOpts(man, false)
	opts.MaxFlows = maxFlows
	opts.ResolveEvery = 100
	opts.Obs = obsT
	mon := New(opts)

	// Round-robin interleave: every flow replays the same trace, so every
	// surviving flow has a known-correct reference inference.
	for i := range tr.Packets {
		for _, name := range names {
			mon.Ingest(Frame{Flow: name, Packet: tr.Packets[i]})
		}
	}
	results := mon.Drain()

	if len(results) != flows {
		t.Fatalf("got %d results, want %d (one per flow, evicted or drained)", len(results), flows)
	}
	ref, err := core.Infer(man, tr, core.Params{MediaHost: "media.example.com", Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	evicted, survived := 0, 0
	for _, r := range results {
		switch r.Reason {
		case ReasonEvictedLRU:
			evicted++
			found := false
			for _, w := range r.Warnings {
				if w.Code == "flow_evicted" {
					found = true
				}
			}
			if !found {
				t.Fatalf("evicted flow %s lacks the flow_evicted warning: %+v", r.Flow, r.Warnings)
			}
		case ReasonDrain:
			survived++
			if r.Packets != len(tr.Packets) {
				t.Fatalf("survivor %s saw %d packets, want the full %d", r.Flow, r.Packets, len(tr.Packets))
			}
			if len(r.Requests) != len(ref.Requests) {
				t.Fatalf("survivor %s inferred %d requests, reference has %d", r.Flow, len(r.Requests), len(ref.Requests))
			}
		default:
			t.Fatalf("unexpected finalization reason %q for %s", r.Reason, r.Flow)
		}
	}
	if survived != maxFlows || evicted != flows-maxFlows {
		t.Fatalf("survived=%d evicted=%d, want %d/%d", survived, evicted, maxFlows, flows-maxFlows)
	}
	reg := obsT.Metrics()
	if v := reg.Counter("stream.flows_evicted").Value(); v != int64(evicted) {
		t.Fatalf("stream.flows_evicted = %d, want %d", v, evicted)
	}
	if v, ok := reg.Gauge("stream.bytes_buffered").Value(); !ok || v != 0 {
		t.Fatalf("stream.bytes_buffered = %v after drain, want 0", v)
	}
	if v, ok := reg.Gauge("stream.flows_active").Value(); !ok || v != 0 {
		t.Fatalf("stream.flows_active = %v after drain, want 0", v)
	}
}

// TestDrainWithLiveServerNoLeak pins the SIGTERM drain path: a monitor
// wired to a live ops plane drains every flow to a final result and winds
// down both without leaking goroutines.
func TestDrainWithLiveServerNoLeak(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 62, 60)

	srv, err := live.Start(live.Options{Addr: "127.0.0.1:0", Program: "stream-test"})
	if err != nil {
		t.Fatal(err)
	}
	opts := replayOpts(man, false)
	opts.Params.Stages = srv.StageTimer()
	mon := New(opts)
	srv.SetStatus("monitor", mon.Status)

	// Two flows mid-stream, neither closed: drain must flush both.
	half := len(tr.Packets) / 2
	for i := 0; i < half; i++ {
		mon.Ingest(Frame{Flow: "live-a", Packet: tr.Packets[i]})
		mon.Ingest(Frame{Flow: "live-b", Packet: tr.Packets[i]})
	}
	results := mon.Drain()
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, r := range results {
		if r.Reason != ReasonDrain {
			t.Fatalf("flow %s finalized as %q, want %q", r.Flow, r.Reason, ReasonDrain)
		}
		if r.Packets != half {
			t.Fatalf("flow %s saw %d packets, want %d", r.Flow, r.Packets, half)
		}
	}
	if mon.Ingest(Frame{Flow: "late"}) {
		t.Fatalf("Ingest after Drain must refuse")
	}
	if err := srv.Shutdown(0); err != nil {
		t.Fatalf("live shutdown: %v", err)
	}
}

// TestPoisonedFlowQuarantined injects a panic into every solve of one flow:
// it must park itself with a structured warning after QuarantineAfter
// failures while its sibling streams to a correct final inference.
func TestPoisonedFlowQuarantined(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 63, 60)

	testHookSolve = func(flow string) {
		if flow == "poison" {
			panic("injected poison")
		}
	}
	defer func() { testHookSolve = nil }()

	obsT := obs.New(nil, nil)
	opts := replayOpts(man, false)
	opts.ResolveEvery = 50
	opts.QuarantineAfter = 2
	opts.Obs = obsT
	mon := New(opts)
	for i := range tr.Packets {
		mon.Ingest(Frame{Flow: "poison", Packet: tr.Packets[i]})
		mon.Ingest(Frame{Flow: "healthy", Packet: tr.Packets[i]})
	}
	results := mon.Drain()
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	byFlow := map[string]Result{}
	for _, r := range results {
		byFlow[r.Flow] = r
	}
	poison := byFlow["poison"]
	if poison.Reason != ReasonQuarantined {
		t.Fatalf("poisoned flow finalized as %q, want %q", poison.Reason, ReasonQuarantined)
	}
	if poison.Err == "" || !strings.Contains(poison.Err, "injected poison") {
		t.Fatalf("poisoned flow's error %q does not carry the contained panic", poison.Err)
	}
	found := false
	for _, w := range poison.Warnings {
		if w.Code == "flow_quarantined" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no flow_quarantined warning: %+v", poison.Warnings)
	}
	healthy := byFlow["healthy"]
	if healthy.Reason != ReasonDrain || healthy.Err != "" {
		t.Fatalf("healthy sibling suffered: %+v", healthy)
	}
	if len(healthy.Requests) == 0 {
		t.Fatalf("healthy sibling inferred no requests")
	}
	if v := obsT.Metrics().Counter("stream.solve_panics").Value(); v < 2 {
		t.Fatalf("stream.solve_panics = %d, want >= 2", v)
	}
}

// TestMemBudgetEvicts pins the per-flow memory budget: a flow breaching it
// degrades to a partial result with the structured warning, never a crash.
func TestMemBudgetEvicts(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 64, 60)

	opts := replayOpts(man, false)
	opts.FlowMemBudget = 32 << 10 // a few hundred packets
	mon := New(opts)
	for i := range tr.Packets {
		mon.Ingest(Frame{Flow: "big", Packet: tr.Packets[i]})
	}
	results := mon.Drain()
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Reason != ReasonEvictedMem {
		t.Fatalf("reason = %q, want %q", r.Reason, ReasonEvictedMem)
	}
	if r.Packets >= len(tr.Packets) {
		t.Fatalf("eviction did not truncate the flow (%d packets)", r.Packets)
	}
	found := false
	for _, w := range r.Warnings {
		if w.Code == "flow_evicted" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no flow_evicted warning: %+v", r.Warnings)
	}
}

// TestIdleEvictVirtualTime pins idle eviction on the stream's virtual
// clock: a flow that stops sending while another advances time is evicted
// deterministically, with no wall-clock involvement.
func TestIdleEvictVirtualTime(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 65, 60)

	opts := replayOpts(man, false)
	opts.IdleEvictSec = 5
	mon := New(opts)
	// "idle" sends the first quarter, then goes quiet; "active" keeps
	// advancing virtual time past the idle budget. The two are interleaved
	// in capture-time order — the virtual clock (max packet timestamp)
	// assumes a time-ordered stream, as any live tap or Pack recording is.
	quarter := len(tr.Packets) / 4
	ii, ai := 0, 0
	for ii < quarter || ai < len(tr.Packets) {
		if ii < quarter && tr.Packets[ii].Time <= tr.Packets[ai].Time {
			mon.Ingest(Frame{Flow: "idle", Packet: tr.Packets[ii]})
			ii++
			continue
		}
		mon.Ingest(Frame{Flow: "active", Packet: tr.Packets[ai]})
		ai++
	}
	results := mon.Drain()
	byFlow := map[string]Result{}
	for _, r := range results {
		byFlow[r.Flow] = r
	}
	if got := byFlow["idle"].Reason; got != ReasonEvictedIdle {
		t.Fatalf("idle flow finalized as %q, want %q", got, ReasonEvictedIdle)
	}
	if got := byFlow["active"].Reason; got != ReasonDrain {
		t.Fatalf("active flow finalized as %q, want %q", got, ReasonDrain)
	}
}

// TestShedDropUnderOverload pins the live overload policy: with the
// control loop stalled inside a blocking OnResult, Ingest fills the ring
// and then sheds the next frame (counted once in stream.shed_total) instead
// of blocking the capture path. Under ShedBlock the same frame waits for
// the stall to clear and is never shed. Either way Drain returns every
// flow once the stall is released.
func TestShedDropUnderOverload(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 66, 60)
	for _, policy := range []string{ShedDrop, ShedBlock} {
		t.Run(policy, func(t *testing.T) {
			stalled, release := make(chan struct{}), make(chan struct{})
			unstall := sync.OnceFunc(func() { close(release) })
			defer unstall()
			first := true
			obsT := obs.New(nil, nil)
			opts := replayOpts(man, false)
			opts.ShedPolicy = policy
			opts.Obs = obsT
			opts.OnResult = func(Result) { // control goroutine only
				if first {
					first = false
					close(stalled)
					<-release
				}
			}
			mon := New(opts)
			// Committing the closed flow parks the control loop in OnResult
			// with the ring empty; nothing consumes the ring until release.
			mon.Ingest(Frame{Flow: "closed", Close: true})
			<-stalled
			for i := 0; i < ringSize; i++ {
				if !mon.Ingest(Frame{Flow: "busy", Packet: tr.Packets[i%len(tr.Packets)]}) {
					t.Fatalf("frame %d refused before the ring was full", i)
				}
			}
			accepted := make(chan bool, 1)
			go func() { accepted <- mon.Ingest(Frame{Flow: "busy", Packet: tr.Packets[0]}) }()
			select {
			case ok := <-accepted:
				if policy == ShedBlock {
					t.Fatalf("Ingest returned %v on a full ring under ShedBlock, want it to wait", ok)
				}
				if ok {
					t.Fatalf("Ingest accepted a frame on a full ring under ShedDrop")
				}
			case <-time.After(200 * time.Millisecond):
				if policy == ShedDrop {
					t.Fatalf("Ingest blocked on a full ring under ShedDrop")
				}
			}
			unstall()
			wantBusy, wantShed := ringSize, int64(1)
			if policy == ShedBlock {
				if !<-accepted {
					t.Fatalf("Ingest refused the waiting frame after the stall cleared")
				}
				wantBusy, wantShed = ringSize+1, 0
			}
			results := mon.Drain()
			if got := obsT.Metrics().Counter("stream.shed_total").Value(); got != wantShed {
				t.Fatalf("stream.shed_total = %d, want %d", got, wantShed)
			}
			byFlow := map[string]Result{}
			for _, r := range results {
				byFlow[r.Flow] = r
			}
			if len(results) != 2 || byFlow["closed"].Reason != ReasonClose || byFlow["busy"].Reason != ReasonDrain {
				t.Fatalf("drained %d results %+v, want the closed and the busy flow", len(results), byFlow)
			}
			if got := byFlow["busy"].Packets; got != wantBusy {
				t.Fatalf("busy flow kept %d packets, want %d", got, wantBusy)
			}
		})
	}
}

// TestSolveDeadline pins Options.SolveDeadlineSec: armed through an
// injected Clock that advances one second per read, a 0.5 s per-solve
// deadline truncates the solve into a partial result carrying
// deadline_exceeded. With a nil Clock (replay) the deadline never arms,
// even at a limit any real clock would pass: the output equals a run
// without a deadline.
func TestSolveDeadline(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 67, 60)
	frames := Pack(map[string]*capture.Trace{"flow": tr})
	hasDeadline := func(r Result) bool {
		for _, w := range r.Warnings {
			if w.Code == "deadline_exceeded" {
				return true
			}
		}
		return false
	}

	var mu sync.Mutex
	now := 0.0
	opts := replayOpts(man, false)
	opts.SolveDeadlineSec = 0.5
	opts.Clock = func() float64 {
		mu.Lock()
		defer mu.Unlock()
		now++
		return now
	}
	results := replayThrough(t, frames, opts)
	if len(results) != 1 || !hasDeadline(results[0]) {
		t.Fatalf("with an advancing clock the solve did not stop at its deadline: %+v", results)
	}

	want := marshalResults(t, replayThrough(t, frames, replayOpts(man, false)))
	for _, limit := range []float64{0.5, 1e-9} {
		opts := replayOpts(man, false)
		opts.SolveDeadlineSec = limit
		results := replayThrough(t, frames, opts)
		if len(results) != 1 || hasDeadline(results[0]) {
			t.Fatalf("limit %g without a Clock armed a deadline: %+v", limit, results)
		}
		if got := marshalResults(t, results); !bytes.Equal(got, want) {
			t.Fatalf("limit %g without a Clock changed the output:\n%s\nwant:\n%s", limit, got, want)
		}
	}
}

// TestStreamFaultParity runs the shared fault specs through the streaming
// path and asserts each level's degradation equals the batch pipeline's on
// the same impaired capture — the streaming robustness envelope must not
// add or mask degradation. Every provisional solve must also equal a fresh
// core.Infer of the same prefix, so carried state that is wrong mid-flow
// cannot hide behind a final solve that happens to heal it.
func TestStreamFaultParity(t *testing.T) {
	man := testManifest(t, session.SH)
	res, err := session.Run(session.Config{
		Design:    session.SH,
		Manifest:  man,
		Bandwidth: netem.GenerateCellular(netem.CellularConfig{Seed: 71, MeanBps: 5_000_000, Variability: 0.4}),
		Duration:  60,
		Seed:      71,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range experiments.DefaultFaultLevels() {
		lvl := lvl
		t.Run(lvl.Name, func(t *testing.T) {
			run := res.Run
			if lvl.Spec.Enabled() {
				spec := lvl.Spec
				spec.Seed = 71
				run, _ = faults.Apply(res.Run, spec, nil)
			}
			frames := Pack(map[string]*capture.Trace{"f": run.Trace})
			opts := replayOpts(man, false)
			opts.ResolveEvery = 75
			type solved struct {
				packets int
				result  []byte
			}
			var mu sync.Mutex
			var solves []solved
			render := func(n int, inf *core.Inference, err error) []byte {
				b, jerr := json.Marshal(NewResult("f", "", n, inf, err, nil, man))
				if jerr != nil {
					panic(jerr)
				}
				return b
			}
			testHookSolved = func(flow string, n int, inf *core.Inference, err error) {
				r := render(n, inf, err)
				mu.Lock()
				solves = append(solves, solved{n, r})
				mu.Unlock()
			}
			defer func() { testHookSolved = nil }()
			got := marshalResults(t, replayThrough(t, frames, opts))
			want := marshalResults(t, Batch(frames, replayOpts(man, false)))
			if !bytes.Equal(got, want) {
				t.Fatalf("fault level %s: streaming result diverged from batch:\nstream:\n%s\nbatch:\n%s", lvl.Name, got, want)
			}
			if len(solves) < len(run.Trace.Packets)/opts.ResolveEvery {
				t.Fatalf("fault level %s: %d solves over %d packets", lvl.Name, len(solves), len(run.Trace.Packets))
			}
			for _, s := range solves {
				tr := capture.NewTrace()
				tap := tr.Tap()
				for _, v := range run.Trace.Packets[:s.packets] {
					tap(v, v.Time)
				}
				p := opts.Params
				p.Guard = guard.New(opts.WorkBudget)
				inf, err := core.Infer(man, tr, p)
				if fresh := render(s.packets, inf, err); !bytes.Equal(s.result, fresh) {
					t.Fatalf("fault level %s: the solve at %d packets diverged from a fresh solve of that prefix:\nsolve: %s\nfresh: %s", lvl.Name, s.packets, s.result, fresh)
				}
			}
		})
	}
}
