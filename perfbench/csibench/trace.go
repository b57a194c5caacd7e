package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one session or flow share ID; Parent indexes the span that
// caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory (the monitor's workers record stage spans
// concurrently) and sums their durations by name. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
//
// The tracer reads the wall clock only through now, a function value set
// by newTracer — as csi-monitord hands the monitor its Clock. core.Infer
// calls into the tracer through Params.Stages, and the repository's taint
// audit (TestTaintAuditInventory) would count a direct time.Now there as a
// new wall-clock reach into the inference surface.
type tracer struct {
	now   func() time.Time
	t0    time.Time
	mu    sync.Mutex
	spans []span
	busy  map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{now: time.Now, t0: time.Now(), busy: make(map[string]time.Duration)}
}

func (tr *tracer) sinceStart() int64 { return int64(tr.now().Sub(tr.t0)) }

// begin opens a span and returns its index; end closes it.
func (tr *tracer) begin(name, id string, parent int) int {
	if tr == nil {
		return -1
	}
	now := tr.sinceStart()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	now := tr.sinceStart()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[i].End = now
	tr.busy[tr.spans[i].Name] += time.Duration(now - tr.spans[i].Start)
}

// spanAt records a span whose start and end were taken elsewhere (the
// monitor's OnResult runs on its control goroutine) and returns its index.
func (tr *tracer) spanAt(name, id string, parent int, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
	tr.busy[name] += end.Sub(start)
	return len(tr.spans) - 1
}

// add records time spent in a layer whose calls are too fine-grained for a
// span each (per-frame decode and ingest); it counts toward busyS only.
func (tr *tracer) add(name string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.busy[name] += d
}

// busyS is the summed duration of every span (or add) named name.
func (tr *tracer) busyS(name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.busy[name].Seconds()
}

// write stores the spans as JSONL under dir and returns the file path.
func (tr *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			tr.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// stageTimer implements obs.StageTimer for core.Params.Stages: each
// pipeline stage ("estimate", "candidates", "dp") becomes a "core.<stage>"
// span under the operation that is current when the stage starts.
type stageTimer struct {
	tr     *tracer
	mu     sync.Mutex
	id     string
	parent int
}

// within makes later stages children of span parent, with the given id.
func (st *stageTimer) within(id string, parent int) {
	st.mu.Lock()
	st.id, st.parent = id, parent
	st.mu.Unlock()
}

func (st *stageTimer) Start(stage string) func() {
	st.mu.Lock()
	id, parent := st.id, st.parent
	st.mu.Unlock()
	i := st.tr.begin("core."+stage, id, parent)
	return func() { st.tr.end(i) }
}

// writeSpans stores a traced run's spans under the output directory.
func writeSpans(c config, tr *tracer) error {
	path, err := tr.write(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "csibench: spans written to", path)
	return nil
}
