// Package live is the operational telemetry plane of the repository: an
// HTTP server exposing, for the duration of a long-running inference or
// sweep, the state that the deterministic obs layer only exports post hoc.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition of every obs.Registry
//	                counter/gauge/histogram (lock-free Registry.Snapshot,
//	                stable ordering, p50/p95/p99 per histogram)
//	/statusz        JSON status document: build info, uptime, guard/runner
//	                configuration and progress (tasks done/failed/cancelled/
//	                panicked + ETA), per-stage core.Infer timings
//	/healthz        liveness (always 200 while the process serves)
//	/readyz         readiness (503 until SetReady(true))
//	/events         Server-Sent Events tail of a bounded ring buffer of
//	                recent obs records (JSONL payloads)
//	/debug/pprof/   the standard runtime profiles
//
// Wall-clock sanctioning. The determinism contract quarantines the wall
// clock from every library package (csi-vet's determinism and taint rules);
// this package is the audited exception, alongside guard.WallClock and the
// obs export opt-in. Every time.Now/Since here feeds only the live plane —
// uptime, ETA extrapolation, stage-duration histograms kept in the server's
// *own* registry — never an inference result, a deterministic export or the
// application registry, so goldens stay byte-identical with and without
// -serve. The .csi-vet.conf allow for this directory and the
// TestTaintAuditInventory entry pin that boundary.
//
// Zero-overhead off path. A nil *Server is fully inert: every method
// no-ops, StageTimer() returns the nil interface the core checks with a
// single comparison, and no ring sink exists to receive records; with no
// output configured at all, Setup returns the nil tracer as well. Binaries
// run without -serve pay exactly what they paid before the plane existed
// (benchmarked by BenchmarkNilStageTimer in bench_test.go).
package live

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csi/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address, e.g. "127.0.0.1:8080"; port 0 binds a
	// free port (read it back with Addr).
	Addr string
	// Program names the serving binary in /statusz.
	Program string
	// Registry is the application metrics registry (the obs tracer's).
	// The server only ever reads snapshots of it: it must not create
	// handles there, or serving would perturb the deterministic metric
	// dumps. May be nil.
	Registry *obs.Registry
	// Ring, when non-nil, is tailed by /events.
	Ring *Ring
	// Extra registries are additional read-only snapshots rendered by
	// /metrics after Registry — e.g. the process-wide half-enumeration
	// cache's counters (core.halfcache.*), which live outside the
	// deterministic application registry. Nil entries are skipped.
	Extra []*obs.Registry
}

// Server is the live ops plane. The nil *Server no-ops on every method, so
// call sites stay unconditional.
type Server struct {
	opts  Options
	ln    net.Listener
	http  *http.Server
	start time.Time
	ready atomic.Bool
	done  chan struct{} // closed by Shutdown; unblocks SSE streams
	err   atomic.Pointer[error]

	// reg is the server's own registry: stage-duration histograms, ETA and
	// throughput gauges, scrape counters. Kept separate from opts.Registry
	// so wall-clock-derived values never leak into deterministic dumps.
	reg *obs.Registry

	mu       sync.Mutex
	sections map[string]func() any
	progress progressState
}

// Start binds opts.Addr and serves the ops plane on a background goroutine
// until Shutdown. The returned server is immediately live (healthz answers)
// but not ready (readyz answers 503) until SetReady(true).
func Start(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		opts:     opts,
		ln:       ln,
		start:    time.Now(),
		done:     make(chan struct{}),
		reg:      obs.NewRegistry(),
		sections: map[string]func() any{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: mux}
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.err.Store(&err)
		}
	}()
	return s, nil
}

// Addr returns the bound listen address ("" on the nil server).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Err returns the terminal serve error, if the background server died for
// any reason other than Shutdown.
func (s *Server) Err() error {
	if s == nil {
		return nil
	}
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// SetReady flips the /readyz verdict. Nil-safe.
func (s *Server) SetReady(ready bool) {
	if s != nil {
		s.ready.Store(ready)
	}
}

// SetStatus registers a named /statusz section; fn is invoked at render
// time and its result JSON-marshalled. Nil-safe.
func (s *Server) SetStatus(section string, fn func() any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sections[section] = fn
	s.mu.Unlock()
}

// Shutdown marks the server unready, unblocks every /events stream and
// gracefully stops the HTTP server (bounded by timeout, then hard-closed).
// Safe to call on the nil server and idempotent enough for deferred use.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s == nil {
		return nil
	}
	s.ready.Store(false)
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		err = s.http.Close()
	}
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintln(w, "not ready")
		return
	}
	_, _ = fmt.Fprintln(w, "ready")
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintf(w, "%s live ops plane\n\n", s.opts.Program)
	for _, ep := range []string{"/metrics", "/statusz", "/healthz", "/readyz", "/events", "/debug/pprof/"} {
		_, _ = fmt.Fprintln(w, "  "+ep)
	}
}

// StageTimer returns the obs.StageTimer recording core.Infer stage
// durations into the server's own registry, or the nil interface on the
// nil server (so the core's p.Stages == nil fast path stays a single
// comparison).
func (s *Server) StageTimer() obs.StageTimer {
	if s == nil {
		return nil
	}
	return stageTimer{s}
}

// stageBoundsSec are the duration buckets (seconds) for per-stage Infer
// histograms: 1 ms to 60 s, roughly 2.5x apart.
var stageBoundsSec = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// stagePrefix names stage histograms in the live registry.
const stagePrefix = "live.stage_seconds."

type stageTimer struct{ s *Server }

// Start implements obs.StageTimer with the plane's sanctioned wall clock.
func (st stageTimer) Start(stage string) func() {
	t0 := time.Now()
	return func() {
		st.s.reg.Histogram(stagePrefix+stage, stageBoundsSec).Observe(time.Since(t0).Seconds())
	}
}

// uptime returns seconds since Start.
func (s *Server) uptime() float64 { return time.Since(s.start).Seconds() }

// sectionNames returns the registered /statusz section names, sorted.
func (s *Server) sectionFuncs() ([]string, map[string]func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sections))
	fns := make(map[string]func() any, len(s.sections))
	for name, fn := range s.sections {
		names = append(names, name)
		fns[name] = fn
	}
	sort.Strings(names)
	return names, fns
}

// hostname is exposed for /statusz; failures degrade to "".
func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return ""
	}
	return h
}

// memStats samples the allocator for /statusz.
func memStats() map[string]any {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return map[string]any{
		"heap_alloc_bytes": m.HeapAlloc,
		"heap_sys_bytes":   m.HeapSys,
		"total_alloc":      m.TotalAlloc,
		"num_gc":           m.NumGC,
	}
}
