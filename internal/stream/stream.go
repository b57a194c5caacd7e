package stream

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/packet"
)

// Shed policies for Ingest when the ring is full.
const (
	// ShedDrop drops the newest frame (live mode: losing the latest packet
	// of a flow degrades one estimate; blocking the capture path would
	// stall every flow).
	ShedDrop = "drop"
	// ShedBlock applies back-pressure to the producer (replay mode: every
	// frame must be processed for byte-identical output). It also fixes the
	// provisional solve cadence: see Options.ResolveEvery.
	ShedBlock = "block"
)

// Finalization reasons (Result.Reason).
const (
	ReasonClose       = "close"
	ReasonDrain       = "drain"
	ReasonEvictedMem  = "evicted:mem"
	ReasonEvictedLRU  = "evicted:lru"
	ReasonEvictedIdle = "evicted:idle"
	ReasonQuarantined = "quarantined"
)

// ringSize bounds the ingest ring (frames).
const ringSize = 4096

// viewFootprint approximates the buffered bytes of one packet.View (struct
// size rounded up; string payloads are added separately). Used only for the
// per-flow memory budget, so a rough constant is fine — it just has to be
// deterministic.
const viewFootprint = 160

func frameBytes(v *packet.View) int64 {
	return viewFootprint + int64(len(v.SNI)+len(v.ServerIP)+len(v.DNSQuery)+len(v.DNSAnswerIP))
}

// Options configures a Monitor.
type Options struct {
	// Manifest is the chunk-size ladder every flow is matched against.
	Manifest *media.Manifest
	// Params is the base inference configuration applied to every flow
	// (MediaHost, Mux, Degrade, K, Stages, ...). Guard and Obs are
	// overridden per solve; HalfCache should be set here when sharing is
	// wanted, and Stages when the daemon serves per-stage latencies.
	Params core.Params
	// MaxFlows caps the live flow table; a new flow past the cap evicts
	// the least-recently-active one to a partial result. Default 64.
	MaxFlows int
	// FlowMemBudget caps the approximate buffered bytes of one flow;
	// breaching it finalizes the flow to a partial result. Default 64 MiB.
	FlowMemBudget int64
	// ShedPolicy is ShedDrop (default) or ShedBlock.
	ShedPolicy string
	// ResolveEvery re-solves a flow after this many new packets, keeping a
	// provisional inference warm for the status page. 0 disables mid-flow
	// solves (each flow is solved once, at finalization). Provisional
	// solves never change final results: each solve returns what a fresh
	// core.Infer of the flow's packets so far returns (the flow's carried
	// core.Step1 resumes Step 1 exactly), and the shared half cache replays
	// its work byte-identically. Under ShedDrop a flow whose solve is still running
	// when its next one falls due is re-solved once that solve completes,
	// over everything buffered by then, so fewer solves run under load. Under ShedBlock without Params.Mux the control
	// loop waits for that solve instead, so a flow is solved at exactly
	// every ResolveEvery-th packet and the solve count is a function of the
	// frames alone. Mux flows coalesce in both modes: each of their solves
	// is a full candidate search whose cost grows superlinearly with the
	// flow, so solving every due prefix would multiply replay time and
	// memory.
	ResolveEvery int
	// WorkBudget is the per-solve guard step budget; 0 is unmetered.
	WorkBudget int64
	// SolveDeadlineSec arms a wall-clock deadline per solve (requires
	// Clock; a liveness backstop for live mode, never used in replay).
	SolveDeadlineSec float64
	// QuarantineAfter parks a flow after this many consecutive panicking
	// solves (a successful solve resets the count; ordinary inference errors
	// leave it alone — they are normal on short prefixes of a growing flow);
	// 0 disables.
	QuarantineAfter int
	// IdleEvictSec finalizes flows idle for this long in *virtual* time
	// (the max packet timestamp seen), so replay stays deterministic.
	// 0 disables.
	IdleEvictSec float64
	// Obs receives the monitor's counters and gauges (stream.*); nil
	// disables. In the daemon this registry is served by the live plane.
	Obs *obs.Tracer
	// Clock is the sanctioned wall-time source for live mode (arming
	// solve deadlines). Nil in replay: the monitor then reads no wall
	// time at all.
	Clock func() float64
	// OnResult, when non-nil, receives each finalized Result in commit
	// order, from the control goroutine (keep it fast; it must not call
	// back into the Monitor).
	OnResult func(Result)
	// Durable, when non-nil, makes the monitor crash-safe: every accepted
	// frame is WAL'd before it mutates the flow table, and quiescent
	// points are snapshotted. The control loop logs each batch it takes
	// from the ring with one write before applying its first frame; the
	// write splits only at a -wal-sync fsync point or a segment rotation,
	// so each fsync follows the same record as with one write per frame.
	// Obtain via OpenDurability; seed a recovered monitor via Recover
	// rather than New.
	Durable *Durability
}

func (o Options) withDefaults() Options {
	if o.MaxFlows <= 0 {
		o.MaxFlows = 64
	}
	if o.FlowMemBudget <= 0 {
		o.FlowMemBudget = 64 << 20
	}
	if o.ShedPolicy == "" {
		o.ShedPolicy = ShedDrop
	}
	return o
}

// flowState is one monitored flow. The control goroutine owns every field;
// while solving is set the trace is frozen — workers read it, the control
// loop buffers arrivals in pending instead of tapping.
type flowState struct {
	name  string
	trace *capture.Trace
	tap   func(packet.View, float64)
	// step1 carries Step 1 across the flow's solves (core.Step1). It is
	// rebuilt from the trace, never persisted: a recovered flow's first
	// solve starts it from empty.
	step1 *core.Step1

	packets  int
	bytes    int64
	firstSeq uint64  // ingest sequence of the frame that created the flow
	lastSeq  uint64  // ingest sequence of the last accepted frame (LRU key)
	lastTime float64 // max packet timestamp (virtual clock)

	solving  bool
	pending  []packet.View // frames arrived while a solve froze the trace
	solvedAt int           // packet count when the last solve was scheduled
	solves   int
	lastInf  *core.Inference // last completed successful solve
	lastErr  error
	// panicStreak counts the consecutive panicking solves toward
	// Options.QuarantineAfter.
	panicStreak int

	finalizing  bool
	finalIssued bool // the final solve has been scheduled
	finalSeq    uint64
	reason      string
	warns       []core.Warning // stream-level warnings, appended after the inference's
	dropped     int            // frames discarded after the finalization decision
}

type solveDone struct {
	fs  *flowState
	inf *core.Inference
	err error
}

// Monitor is the streaming front end of core.Infer: a control goroutine
// owning the flow table and every finalization decision, plus a bounded
// worker pool running the actual solves. All decisions (eviction, memory
// budget, idle, LRU, drain order) are functions of the ingest frame
// sequence alone, so a replayed frame stream finalizes the same flows for
// the same reasons in the same order on every run.
type Monitor struct {
	opts Options
	man  *media.Manifest

	drainCh chan struct{}
	tasks   chan *flowState
	ctrl    chan solveDone
	doneCh  chan struct{}
	wg      sync.WaitGroup

	// The ingest ring: a circular buffer of ringSize frames, ringN of them
	// queued from ringHead on. ringMu guards those fields and stopped, which
	// Drain sets once; Ingest refuses afterwards. notify holds a token
	// whenever frames are queued and the control loop may not know it;
	// space holds one for the ShedBlock producers waiting on a full ring.
	ringMu   sync.Mutex
	ring     []Frame
	ringHead int
	ringN    int
	stopped  bool
	notify   chan struct{}
	space    chan struct{}

	// mu guards the maps and slices also read from other goroutines
	// (Status, Drain's result pickup). The control goroutine is the only
	// writer.
	mu      sync.Mutex
	flows   map[string]*flowState
	closed  map[string]bool // committed flows; late frames are dropped
	results []Result

	// control-goroutine-only state
	seq         uint64
	vnow        float64 // max packet timestamp across all frames
	finalSeq    uint64
	commitNext  uint64
	uncommitted map[uint64]Result
	solveQ      []*flowState
	liveFlows   int // flows not yet finalizing
	draining    bool
	// batch holds the frames of the current take→log→apply step: taken
	// from the ring and logged, applied in order (see applyBatch).
	batch []Frame

	// parked names the quarantined flows, for Status; non-nil (an empty
	// JSON list rather than null) when QuarantineAfter is set. Guarded by mu.
	parked []string

	cFrames  *obs.Counter
	cShed    *obs.Counter
	cEvicted *obs.Counter
	cDropped *obs.Counter
	cSolves  *obs.Counter
	cFails   *obs.Counter
	cPanics  *obs.Counter
	gActive  *obs.Gauge
	gBuffer  *obs.Gauge
}

// testHookSolve, when set, runs inside every contained solve before the
// inference — tests inject panics per flow to exercise quarantine.
// testHookSolved, when set, receives every solve's outcome with the packet
// count it covered, on the worker goroutine. testHookIngest, when set, runs
// in Ingest between its stopped check and its copy into the ring, under the
// ring lock. Never set outside tests.
var (
	testHookSolve  func(flow string)
	testHookSolved func(flow string, packets int, inf *core.Inference, err error)
	testHookIngest func()
)

// New starts a monitor: the control goroutine plus GOMAXPROCS solvers.
// Callers must end its life with Drain.
func New(opts Options) *Monitor {
	m := newMonitor(opts)
	m.start()
	return m
}

// newMonitor builds a monitor whose goroutines have not started yet.
func newMonitor(opts Options) *Monitor {
	opts = opts.withDefaults()
	reg := opts.Obs.Metrics()
	workers := runtime.GOMAXPROCS(0)
	m := &Monitor{
		opts:        opts,
		man:         opts.Manifest,
		ring:        make([]Frame, ringSize),
		notify:      make(chan struct{}, 1),
		space:       make(chan struct{}, 1),
		drainCh:     make(chan struct{}),
		tasks:       make(chan *flowState, workers*2),
		ctrl:        make(chan solveDone, workers*2),
		doneCh:      make(chan struct{}),
		flows:       make(map[string]*flowState),
		closed:      make(map[string]bool),
		uncommitted: make(map[uint64]Result),
		cFrames:     reg.Counter("stream.frames_total"),
		cShed:       reg.Counter("stream.shed_total"),
		cEvicted:    reg.Counter("stream.flows_evicted"),
		cDropped:    reg.Counter("stream.frames_dropped_postfinal"),
		cSolves:     reg.Counter("stream.solves_total"),
		cFails:      reg.Counter("stream.solve_failures"),
		cPanics:     reg.Counter("stream.solve_panics"),
		gActive:     reg.Gauge("stream.flows_active"),
		gBuffer:     reg.Gauge("stream.bytes_buffered"),
	}
	if opts.QuarantineAfter > 0 {
		m.parked = []string{}
	}
	m.gActive.Set(0)
	m.gBuffer.Set(0)
	return m
}

// start launches the solver pool and the control goroutine.
func (m *Monitor) start() {
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		m.wg.Add(1)
		go m.worker()
	}
	go m.run()
}

// Ingest offers one frame to the monitor. Under ShedDrop a full ring sheds
// the frame (counted in stream.shed_total) and returns false; under
// ShedBlock it blocks until the control loop catches up. Returns false
// without ingesting once Drain has begun; a frame for which it returns
// true is always processed.
func (m *Monitor) Ingest(f Frame) bool {
	return m.enqueue(&f, m.opts.ShedPolicy == ShedBlock)
}

// enqueue copies f into the ring's tail slot. With block set a producer
// facing a full ring waits for the control loop to make space, or for
// Drain; otherwise the frame is shed. The stopped check and the copy share
// one critical section, so once Drain has set stopped no further frame
// lands in the ring, and every frame already there is swept by beginDrain.
func (m *Monitor) enqueue(f *Frame, block bool) bool {
	waited := false
	m.ringMu.Lock()
	for m.ringN == ringSize && !m.stopped {
		m.ringMu.Unlock()
		if !block {
			m.cShed.Inc() // ShedDrop: the newest frame goes
			return false
		}
		//csi-vet:ignore taint -- back-pressure wait: either arm only sends the producer back to retry under the ring lock, where the frame takes its FIFO place or is refused because Drain set stopped; which arm fires decides nothing
		select {
		case <-m.space:
		case <-m.drainCh:
		}
		waited = true
		m.ringMu.Lock()
	}
	if m.stopped {
		m.ringMu.Unlock()
		return false
	}
	if testHookIngest != nil {
		testHookIngest()
	}
	tail := m.ringHead + m.ringN
	if tail >= ringSize {
		tail -= ringSize
	}
	m.ring[tail] = *f
	m.ringN++
	wasEmpty, room := m.ringN == 1, m.ringN < ringSize
	m.ringMu.Unlock()
	if wasEmpty {
		signal(m.notify)
	}
	if waited && room {
		// Pass the wake-up on: the control loop signals space once per
		// batch it takes from a full ring, and other producers may wait.
		signal(m.space)
	}
	return true
}

// signal leaves a token in the one-slot channel c unless one is there.
func signal(c chan struct{}) {
	//csi-vet:ignore taint -- token post: a full slot already carries the same wake-up, so the dropped send changes nothing the receiver sees
	select {
	case c <- struct{}{}:
	default:
	}
}

// Drain stops ingestion, processes every frame still buffered in the ring,
// flushes every live flow to a final (possibly partial) inference, waits
// for the pool to wind down and returns all results in commit order. Safe
// to call once; Ingest returns false afterwards.
func (m *Monitor) Drain() []Result {
	m.ringMu.Lock()
	if !m.stopped {
		m.stopped = true
		close(m.drainCh)
	}
	m.ringMu.Unlock()
	<-m.doneCh
	m.wg.Wait()
	m.mu.Lock()
	results := m.results
	var final *Snapshot
	if m.opts.Durable != nil {
		// Graceful drain: one last snapshot carrying every result (the
		// flow table is empty and the commit sequence fully drained), then
		// drop the WAL it covers — a clean restart skips replay entirely.
		crashpointHere("drain.pre_snapshot")
		final = m.snapshotLocked()
	}
	m.mu.Unlock()
	if final != nil {
		d := m.opts.Durable
		d.writeSnapshot(final, true)
		d.close()
	}
	return results
}

// FlowStatus is one row of the Status table.
type FlowStatus struct {
	Flow       string  `json:"flow"`
	Packets    int     `json:"packets"`
	Bytes      int64   `json:"bytes"`
	LastTime   float64 `json:"last_time"`
	Solves     int     `json:"solves"`
	Solving    bool    `json:"solving,omitempty"`
	Finalizing bool    `json:"finalizing,omitempty"`
	// Sequences is the provisional sequence count from the last completed
	// solve (reduced precision, display only).
	Sequences string `json:"sequences,omitempty"`
}

// Status snapshots the flow table for the live /statusz page.
func (m *Monitor) Status() any {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]FlowStatus, 0, len(m.flows))
	for _, fs := range m.flows {
		row := FlowStatus{
			Flow: fs.name, Packets: fs.packets, Bytes: fs.bytes,
			LastTime: fs.lastTime, Solves: fs.solves,
			Solving: fs.solving, Finalizing: fs.finalizing,
		}
		if fs.lastInf != nil {
			row.Sequences = fmt.Sprintf("%.6g", fs.lastInf.SequenceCount)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Flow < rows[j].Flow })
	parked := slices.Clone(m.parked)
	sort.Strings(parked)
	return map[string]any{
		"flows":       rows,
		"committed":   len(m.results),
		"quarantined": parked,
	}
}

// frameBatch bounds the frames the control loop takes from the ring per
// pass of its select: it takes up to frameBatch frames under one lock,
// logs and applies them, then returns to the select, so solve completions
// are still serviced when the ring never empties.
const frameBatch = 256

// run is the control goroutine: sole owner of the flow table and of every
// finalization decision.
func (m *Monitor) run() {
	notify, drain := m.notify, m.drainCh
	for {
		//csi-vet:ignore taint -- control select: frame handling and solve completions commute (a solving flow's trace is frozen; arrivals buffer in pending), and results commit strictly in finalization-sequence order, so the firing order never reaches an output
		select {
		case <-notify:
			m.applyBatch(true)
		case d := <-m.ctrl:
			m.handleDone(d)
		case <-drain:
			m.beginDrain()
			notify, drain = nil, nil // processed; stop selecting on both
		}
		m.dispatch()
		m.maybeSnapshot()
		if m.draining && m.flowCount() == 0 {
			close(m.tasks)
			close(m.doneCh)
			return
		}
	}
}

// applyBatch is the control loop's take→log→apply step, shared by the
// select, the drain sweep and so by Recover's tail: it takes up to
// frameBatch frames from the ring, logs them all to the WAL (one write
// unless an fsync point or a rotation splits it), and only then applies
// them in order. So every frame is in the WAL before any state it changes,
// and a crash loses only frames never applied — as it loses the frames
// still in the ring. With service set it dispatches queued solves and tries
// a due snapshot between frames, as the select does between events. It
// reports whether the ring held any frame.
func (m *Monitor) applyBatch(service bool) bool {
	batch := m.takeBatch()
	if len(batch) == 0 {
		return false
	}
	if d := m.opts.Durable; d != nil {
		d.logBatch(m.seq+1, batch)
	}
	for i := range batch {
		if service && i > 0 {
			m.dispatch()
			m.maybeSnapshot()
		}
		m.handleFrame(&batch[i])
	}
	clear(batch) // drop the frames' strings; keep the backing array
	m.batch = batch
	return true
}

// takeBatch moves up to frameBatch frames from the head of the ring into
// m.batch under one lock. Frames left behind re-arm notify, so the control
// select comes back for them after servicing whatever else is ready; a
// batch taken from a full ring wakes a ShedBlock producer waiting on it.
func (m *Monitor) takeBatch() []Frame {
	batch := m.batch[:0]
	m.ringMu.Lock()
	k := min(m.ringN, frameBatch)
	wasFull := m.ringN == ringSize
	// The k frames sit in at most two runs: up to the end of the buffer,
	// then from its start.
	first := m.ring[m.ringHead:min(m.ringHead+k, ringSize)]
	second := m.ring[:k-len(first)]
	batch = append(append(batch, first...), second...)
	clear(first) // the ring keeps no strings it no longer queues
	clear(second)
	if m.ringHead += k; m.ringHead >= ringSize {
		m.ringHead -= ringSize
	}
	m.ringN -= k
	more := m.ringN > 0
	m.ringMu.Unlock()
	if more {
		signal(m.notify)
	}
	if wasFull && k > 0 {
		signal(m.space)
	}
	return batch
}

func (m *Monitor) flowCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.flows)
}

// beginDrain empties the ring (every frame already accepted by Ingest is
// processed — replay depends on it), then finalizes every remaining flow in
// sorted name order.
func (m *Monitor) beginDrain() {
	// Drain set stopped under the ring lock, so the ring can only shrink.
	for m.applyBatch(false) {
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining = true
	names := make([]string, 0, len(m.flows))
	for name, fs := range m.flows {
		if !fs.finalizing {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m.finalize(m.flows[name], ReasonDrain)
	}
}

// handleFrame applies one frame, already logged when the monitor is
// durable.
func (m *Monitor) handleFrame(f *Frame) {
	if m.opts.ShedPolicy == ShedBlock && m.opts.ResolveEvery > 0 && !m.opts.Params.Mux {
		// The flow's next provisional solve is due at the prefix it already
		// has: wait for the solve in flight rather than let this frame push
		// the next one past its ResolveEvery boundary.
		if fs := m.flows[f.Flow]; fs != nil && fs.solving && !fs.finalizing &&
			fs.packets-fs.solvedAt >= m.opts.ResolveEvery {
			m.awaitSolve(fs)
		}
	}
	m.cFrames.Inc()
	m.seq++
	m.mu.Lock()
	defer m.mu.Unlock()

	fs := m.flows[f.Flow]
	if fs == nil {
		if m.closed[f.Flow] {
			m.cDropped.Inc()
			return
		}
		// A close frame for a never-seen flow still creates (and instantly
		// finalizes) it: the batch pipeline emits a result for every flow
		// name in the stream, and replay must match it.
		if m.liveFlows >= m.opts.MaxFlows {
			m.evictLRU()
		}
		tr := capture.NewTrace()
		fs = &flowState{name: f.Flow, trace: tr, tap: tr.Tap(), step1: core.NewStep1(), firstSeq: m.seq}
		m.flows[f.Flow] = fs
		m.liveFlows++
		m.gActive.Set(float64(m.liveFlows))
	}
	if fs.finalizing {
		fs.dropped++
		m.cDropped.Inc()
		return
	}
	fs.lastSeq = m.seq
	if f.Close {
		m.finalize(fs, ReasonClose)
		return
	}
	m.accept(fs, &f.Packet)
	if fs.bytes > m.opts.FlowMemBudget {
		m.finalize(fs, ReasonEvictedMem)
		return
	}
	if m.opts.IdleEvictSec > 0 {
		m.evictIdle()
		if fs.finalizing { // the arriving flow itself cannot idle out, but be safe
			return
		}
	}
	if m.opts.ResolveEvery > 0 && !fs.solving && fs.packets-fs.solvedAt >= m.opts.ResolveEvery {
		m.schedule(fs, false)
	}
}

// accept adds one packet to fs: its counters, the virtual clock and the
// buffer gauge advance, and the packet is tapped into the trace, or held in
// pending while a solve has the trace frozen.
func (m *Monitor) accept(fs *flowState, v *packet.View) {
	n := frameBytes(v)
	fs.packets++
	fs.bytes += n
	m.gBuffer.Add(float64(n))
	if v.Time > fs.lastTime {
		fs.lastTime = v.Time
	}
	if v.Time > m.vnow {
		m.vnow = v.Time
	}
	if fs.solving {
		fs.pending = append(fs.pending, *v)
	} else {
		fs.tap(*v, v.Time)
	}
}

// awaitSolve runs only the solve side of the control loop (dispatching
// queued solves, handling completions) until fs's in-flight solve is done.
// Completing it schedules fs's due solve, which is not waited for.
func (m *Monitor) awaitSolve(fs *flowState) {
	for n := fs.solves; fs.solving && fs.solves == n; {
		m.dispatch()
		m.handleDone(<-m.ctrl)
	}
}

// evictLRU finalizes the least-recently-active live flow to make room.
func (m *Monitor) evictLRU() {
	var victim *flowState
	for _, fs := range m.flows {
		if fs.finalizing {
			continue
		}
		if victim == nil || fs.lastSeq < victim.lastSeq ||
			(fs.lastSeq == victim.lastSeq && fs.name < victim.name) {
			victim = fs
		}
	}
	if victim != nil {
		m.finalize(victim, ReasonEvictedLRU)
	}
}

// evictIdle finalizes flows idle past the budget in virtual time. Names are
// collected and sorted so multiple evictions in one sweep commit in a
// deterministic order.
func (m *Monitor) evictIdle() {
	var idle []string
	for name, fs := range m.flows {
		if !fs.finalizing && m.vnow-fs.lastTime > m.opts.IdleEvictSec {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	for _, name := range idle {
		m.finalize(m.flows[name], ReasonEvictedIdle)
	}
}

// finalize decides a flow's fate: assigns its commit slot, attaches the
// stream-level warning, and either schedules the final solve or (if one is
// in flight) waits for it. Caller holds m.mu.
func (m *Monitor) finalize(fs *flowState, reason string) {
	if fs.finalizing {
		return // already has a commit slot; re-finalizing would orphan it
	}
	fs.finalizing = true
	fs.reason = reason
	fs.finalSeq = m.finalSeq
	m.finalSeq++
	m.liveFlows--
	m.gActive.Set(float64(m.liveFlows))
	switch reason {
	case ReasonEvictedMem, ReasonEvictedLRU, ReasonEvictedIdle:
		m.cEvicted.Inc()
		fs.warns = append(fs.warns, core.Warning{Code: "flow_evicted",
			Detail: fmt.Sprintf("flow %s evicted (%s) after %d packets; inference covers only the packets received", fs.name, reason, fs.packets)})
	case ReasonQuarantined:
		fs.warns = append(fs.warns, m.quarWarn(fs))
	}
	if reason == ReasonQuarantined {
		// No further solves for a poisoned flow: commit what we have.
		m.commit(fs, fs.lastInf, fs.lastErr)
		return
	}
	if !fs.solving {
		m.schedule(fs, true)
	}
	// else: handleDone sees finalizing and issues the final solve.
}

func (m *Monitor) quarWarn(fs *flowState) core.Warning {
	return core.Warning{Code: "flow_quarantined",
		Detail: fmt.Sprintf("flow %s parked after %d consecutive panicking solves", fs.name, m.opts.QuarantineAfter)}
}

// schedule queues one solve for fs. Caller holds m.mu; fs must not already
// be solving.
func (m *Monitor) schedule(fs *flowState, final bool) {
	fs.solving = true
	fs.solves++
	fs.solvedAt = fs.packets
	if final {
		fs.finalIssued = true
	}
	m.solveQ = append(m.solveQ, fs)
}

// dispatch moves queued solves to the worker pool without ever blocking the
// control loop (the queue is the overflow buffer; tasks capacity only sizes
// the handoff).
func (m *Monitor) dispatch() {
	for len(m.solveQ) > 0 {
		//csi-vet:ignore taint -- handoff select: whether a solve starts now or after the next control iteration only shifts provisional work; final results commit in finalization order regardless
		select {
		case m.tasks <- m.solveQ[0]:
			m.solveQ[0] = nil // the backing array must not keep a committed flow's trace alive
			m.solveQ = m.solveQ[1:]
		default:
			return
		}
	}
}

func (m *Monitor) handleDone(d solveDone) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := d.fs
	fs.solving = false
	m.cSolves.Inc()
	panicked := false
	if d.err != nil {
		m.cFails.Inc()
		if _, ok := d.err.(*guard.PanicError); ok {
			panicked = true
			m.cPanics.Inc()
		}
		fs.lastErr = d.err
	} else {
		fs.lastInf = d.inf
		fs.lastErr = nil
	}
	// Only panicking solves count toward quarantine: an ordinary inference
	// error is normal on a short prefix of a still-growing flow and clears
	// itself as data arrives, but a panic marks the flow's data as poison.
	if panicked {
		fs.panicStreak++
	} else if d.err == nil {
		fs.panicStreak = 0
	}

	if m.opts.QuarantineAfter > 0 && fs.panicStreak >= m.opts.QuarantineAfter {
		m.parked = append(m.parked, fs.name)
		// The park decision overrides any finalization already in flight:
		// the flow gets no further solves, so commit what we have — in the
		// already-assigned slot if one exists (re-finalizing would orphan it
		// and stall the commit sequence).
		if fs.finalizing {
			fs.reason = ReasonQuarantined
			fs.warns = append(fs.warns, m.quarWarn(fs))
			m.commit(fs, fs.lastInf, fs.lastErr)
			return
		}
		m.finalize(fs, ReasonQuarantined)
		return
	}
	if fs.finalizing && fs.finalIssued {
		// This was the final solve: commit its outcome, success or not.
		m.commit(fs, d.inf, d.err)
		return
	}
	// Thaw: flush the frames that arrived while the trace was frozen.
	for _, v := range fs.pending {
		fs.tap(v, v.Time)
	}
	clear(fs.pending) // drop the strings; keep the backing array for the next solve
	fs.pending = fs.pending[:0]
	if fs.finalizing {
		m.schedule(fs, true)
		return
	}
	if m.opts.ResolveEvery > 0 && fs.packets-fs.solvedAt >= m.opts.ResolveEvery {
		m.schedule(fs, false)
	}
}

// commit renders the flow's Result into its finalization slot and emits
// every consecutive committed slot in order. Caller holds m.mu.
func (m *Monitor) commit(fs *flowState, inf *core.Inference, err error) {
	crashpointHere("commit.pre_emit")
	res := NewResult(fs.name, fs.reason, fs.packets, inf, err, fs.warns, m.man)
	m.uncommitted[fs.finalSeq] = res
	delete(m.flows, fs.name)
	m.closed[fs.name] = true
	m.gBuffer.Add(float64(-fs.bytes))
	for {
		r, ok := m.uncommitted[m.commitNext]
		if !ok {
			return
		}
		delete(m.uncommitted, m.commitNext)
		m.commitNext++
		m.results = append(m.results, r)
		if m.opts.OnResult != nil {
			m.opts.OnResult(r)
		}
	}
}

// worker pulls solve assignments until the task channel closes.
func (m *Monitor) worker() {
	defer m.wg.Done()
	for fs := range m.tasks {
		m.ctrl <- m.solve(fs)
	}
}

// solve runs one contained inference over a frozen flow trace.
func (m *Monitor) solve(fs *flowState) solveDone {
	d := solveDone{fs: fs}
	p := m.opts.Params
	p.Guard = guard.New(m.opts.WorkBudget)
	if m.opts.SolveDeadlineSec > 0 && m.opts.Clock != nil {
		p.Guard.WithDeadline(m.opts.Clock, m.opts.SolveDeadlineSec)
	}
	// Per-flow solves run untraced: the number of solves a flow gets
	// depends on timing under ShedDrop (and for mux flows in either mode),
	// so their obs events would differ between runs while the results do
	// not. The monitor's own registry carries the stream metrics.
	p.Obs = nil
	d.err = contain(func() error {
		if testHookSolve != nil {
			testHookSolve(fs.name)
		}
		inf, err := fs.step1.Infer(m.man, fs.trace, p)
		if err != nil {
			return err
		}
		d.inf = inf
		return nil
	})
	if testHookSolved != nil {
		testHookSolved(fs.name, len(fs.trace.Packets), d.inf, d.err)
	}
	return d
}

// contain converts a panicking solve into an error (guard.PanicError), so a
// poisoned flow fails its solve instead of killing the pool.
func contain(fn func() error) (err error) {
	defer guard.Capture(&err)
	return fn()
}

// Batch is the reference pipeline the replay gate compares against: group
// frames per flow (up to each flow's first close marker, mirroring the
// monitor's post-finalize drop rule), run one batch core.Infer per flow,
// and emit results in the same order the monitor would commit them — close
// markers in frame order first, then never-closed flows in sorted name
// order with ReasonDrain. No monitor, no workers: just the plain offline
// pipeline.
func Batch(frames []Frame, opts Options) []Result {
	opts = opts.withDefaults()
	type batchFlow struct {
		trace  *capture.Trace
		tap    func(packet.View, float64)
		closed bool
		pkts   int
	}
	flows := make(map[string]*batchFlow)
	type finalization struct {
		name   string
		reason string
	}
	var order []finalization
	var names []string
	for _, f := range frames {
		bf := flows[f.Flow]
		if bf == nil {
			tr := capture.NewTrace()
			bf = &batchFlow{trace: tr, tap: tr.Tap()}
			flows[f.Flow] = bf
			names = append(names, f.Flow)
		}
		if bf.closed {
			continue
		}
		if f.Close {
			bf.closed = true
			order = append(order, finalization{f.Flow, ReasonClose})
			continue
		}
		bf.tap(f.Packet, f.Packet.Time)
		bf.pkts++
	}
	sort.Strings(names)
	for _, name := range names {
		if !flows[name].closed {
			order = append(order, finalization{name, ReasonDrain})
		}
	}
	results := make([]Result, 0, len(order))
	for _, fin := range order {
		bf := flows[fin.name]
		p := opts.Params
		p.Guard = guard.New(opts.WorkBudget)
		inf, err := core.Infer(opts.Manifest, bf.trace, p)
		results = append(results, NewResult(fin.name, fin.reason, bf.pkts, inf, err, nil, opts.Manifest))
	}
	return results
}
