package live

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// statusDoc is the /statusz JSON document. Field order is fixed by the
// struct, map-valued fields marshal with sorted keys, so the schema is
// stable for scripts.
type statusDoc struct {
	Program    string         `json:"program"`
	Hostname   string         `json:"hostname,omitempty"`
	PID        int            `json:"pid"`
	GoVersion  string         `json:"go_version"`
	Build      map[string]any `json:"build,omitempty"`
	StartedAt  string         `json:"started_at"`
	Now        string         `json:"now"`
	UptimeSec  float64        `json:"uptime_sec"`
	Ready      bool           `json:"ready"`
	Goroutines int            `json:"goroutines"`
	Mem        map[string]any `json:"mem"`

	Runner *runnerStatus           `json:"runner,omitempty"`
	Stages map[string]*stageStatus `json:"infer_stages,omitempty"`

	Events *eventsStatus `json:"events,omitempty"`

	Sections map[string]any `json:"status,omitempty"`
}

// runnerStatus is the sweep-progress block, fed by the guard/runner
// counters in the application registry and extrapolated with the plane's
// sanctioned wall clock.
type runnerStatus struct {
	TasksTotal int64 `json:"tasks_total"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Cancelled  int64 `json:"cancelled"`
	Panics     int64 `json:"panics"`
	Active     int64 `json:"active"`
	Remaining  int64 `json:"remaining"`
	// RatePerSec is the terminal-task throughput (completed+failed per
	// second of serving time); EtaSec extrapolates the remaining tasks at
	// that rate. Both are 0 until the first task finishes.
	RatePerSec float64 `json:"rate_per_sec"`
	EtaSec     float64 `json:"eta_sec"`
	EtaAt      string  `json:"eta_at,omitempty"`
}

// stageStatus summarizes one core.Infer stage-duration histogram.
type stageStatus struct {
	Count  int64   `json:"count"`
	SumSec float64 `json:"sum_sec"`
	P50Sec float64 `json:"p50_sec"`
	P95Sec float64 `json:"p95_sec"`
	P99Sec float64 `json:"p99_sec"`
}

// eventsStatus describes the /events ring.
type eventsStatus struct {
	Buffered int    `json:"buffered"`
	NextSeq  uint64 `json:"next_seq"`
}

// progressState remembers when serving began observing runner progress so
// ETA extrapolation has a baseline.
type progressState struct {
	baselined bool
	t0        time.Time
	terminal0 int64
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	doc := statusDoc{
		Program:    s.opts.Program,
		Hostname:   hostname(),
		PID:        os.Getpid(),
		GoVersion:  runtime.Version(),
		Build:      buildInfo(),
		StartedAt:  s.start.UTC().Format(time.RFC3339Nano),
		Now:        time.Now().UTC().Format(time.RFC3339Nano),
		UptimeSec:  s.uptime(),
		Ready:      s.ready.Load(),
		Goroutines: runtime.NumGoroutine(),
		Mem:        memStats(),
		Runner:     s.observeProgress(),
		Stages:     s.stageStatuses(),
	}
	if s.opts.Ring != nil {
		_, _, next := s.opts.Ring.TailFrom(0)
		doc.Events = &eventsStatus{Buffered: s.opts.Ring.Len(), NextSeq: next}
	}
	names, fns := s.sectionFuncs()
	if len(names) > 0 {
		doc.Sections = make(map[string]any, len(names))
		for _, name := range names {
			doc.Sections[name] = fns[name]()
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// observeProgress reads the runner.* metrics out of an application-registry
// snapshot (never creating handles there), derives throughput and ETA with
// the live clock, publishes them as gauges in the server's own registry,
// and returns the /statusz block. Returns nil before any runner activity.
func (s *Server) observeProgress() *runnerStatus {
	snap := s.opts.Registry.Snapshot()
	var st runnerStatus
	found := false
	counter := func(name string) int64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				found = true
				return c.Value
			}
		}
		return 0
	}
	st.TasksTotal = counter("runner.tasks_total")
	st.Completed = counter("runner.tasks_completed")
	st.Failed = counter("runner.tasks_failed")
	st.Cancelled = counter("runner.cancellations")
	st.Panics = counter("runner.panics")
	for _, g := range snap.Gauges {
		if g.Name == "runner.tasks_active" && g.Set {
			st.Active = int64(g.Value)
			found = true
		}
	}
	if !found {
		return nil
	}
	terminal := st.Completed + st.Failed
	st.Remaining = st.TasksTotal - terminal
	if st.Remaining < 0 {
		st.Remaining = 0
	}

	now := time.Now()
	s.mu.Lock()
	if !s.progress.baselined {
		// Baseline at first sight of runner metrics, so setup time before
		// the sweep (manifest encoding, session streaming) does not dilute
		// the task throughput.
		s.progress = progressState{baselined: true, t0: now, terminal0: terminal}
	}
	base := s.progress
	s.mu.Unlock()

	if dt := now.Sub(base.t0).Seconds(); dt > 0 && terminal > base.terminal0 {
		st.RatePerSec = float64(terminal-base.terminal0) / dt
		if st.Remaining > 0 {
			st.EtaSec = float64(st.Remaining) / st.RatePerSec
			st.EtaAt = now.Add(time.Duration(st.EtaSec * float64(time.Second))).UTC().Format(time.RFC3339)
		}
	}
	s.reg.Gauge("live.runner_rate_per_sec").Set(st.RatePerSec)
	s.reg.Gauge("live.runner_eta_seconds").Set(st.EtaSec)
	s.reg.Gauge("live.runner_tasks_remaining").Set(float64(st.Remaining))
	return &st
}

// stageStatuses summarizes the live.stage_seconds.* histograms.
func (s *Server) stageStatuses() map[string]*stageStatus {
	snap := s.reg.Snapshot()
	var out map[string]*stageStatus
	for _, h := range snap.Histograms {
		stage, ok := strings.CutPrefix(h.Name, stagePrefix)
		if !ok || h.N == 0 {
			// An N==0 histogram can be observed between handle creation and
			// the first Observe; its quantiles are NaN, which JSON rejects.
			continue
		}
		if out == nil {
			out = map[string]*stageStatus{}
		}
		out[stage] = &stageStatus{
			Count:  h.N,
			SumSec: h.Sum,
			P50Sec: h.Quantile(0.50),
			P95Sec: h.Quantile(0.95),
			P99Sec: h.Quantile(0.99),
		}
	}
	return out
}

// buildInfo extracts the embedded module and VCS identity, when present.
func buildInfo() map[string]any {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return nil
	}
	out := map[string]any{"path": bi.Path}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS":
			out[kv.Key] = kv.Value
		}
	}
	return out
}
