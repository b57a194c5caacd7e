package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"csi/internal/obs"
)

// startTest boots a server on a free port with a populated app registry
// and a small ring, and tears it down with the test.
func startTest(t *testing.T, reg *obs.Registry, ring *Ring) *Server {
	t.Helper()
	s, err := Start(Options{Addr: "127.0.0.1:0", Program: "live-test", Registry: reg, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(2 * time.Second) })
	return s
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthAndReadiness(t *testing.T) {
	s := startTest(t, nil, nil)
	if code, body := get(t, s, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, _ := get(t, s, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady = %d, want 503", code)
	}
	s.SetReady(true)
	if code, _ := get(t, s, "/readyz"); code != 200 {
		t.Fatalf("readyz after SetReady = %d, want 200", code)
	}
	if code, body := get(t, s, "/"); code != 200 || !strings.Contains(body, "/statusz") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, _ := get(t, s, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d, want 200", code)
	}
}

// TestMetricsExposition pins the Prometheus text format: counter, gauge and
// histogram sections of the app registry, the csi_ prefix, cumulative
// buckets with +Inf, and interpolated quantile gauges — plus the plane's
// own uptime metric.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("core.requests_detected").Add(47)
	reg.Gauge("core.sequence_count").Set(1)
	h := reg.Histogram("core.candidates_per_request", []float64{1, 2, 4})
	for i := 0; i < 4; i++ {
		h.Observe(float64(i))
	}
	s := startTest(t, reg, nil)
	code, body := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE csi_core_requests_detected counter\ncsi_core_requests_detected 47\n",
		"# TYPE csi_core_sequence_count gauge\ncsi_core_sequence_count 1\n",
		"# TYPE csi_core_candidates_per_request histogram\n",
		`csi_core_candidates_per_request_bucket{le="1"} 2`,
		`csi_core_candidates_per_request_bucket{le="+Inf"} 4`,
		"csi_core_candidates_per_request_sum 6\n",
		"csi_core_candidates_per_request_count 4\n",
		"csi_core_candidates_per_request_p50 ",
		"csi_core_candidates_per_request_p99 ",
		"csi_live_uptime_seconds ",
		"csi_live_metrics_scrapes 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, body)
		}
	}
	// The exposition must parse line by line: comments or `name[{labels}] value`.
	if err := parseProm(body); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	// Scraping must never create handles in the app registry.
	if snap := reg.Snapshot(); len(snap.Counters) != 1 || len(snap.Gauges) != 1 {
		t.Fatalf("scrape perturbed the app registry: %+v", snap)
	}
}

// parseProm is a minimal Prometheus text-format validator shared in spirit
// with scripts/livesmoke.go.
func parseProm(body string) error {
	sc := bufio.NewScanner(strings.NewReader(body))
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n++
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("line %d: no sample value: %q", n, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return fmt.Errorf("line %d: bad value %q", n, line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return fmt.Errorf("line %d: unterminated labels: %q", n, line)
			}
			name = name[:i]
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
			if !ok {
				return fmt.Errorf("line %d: bad metric name %q", n, name)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("empty exposition")
	}
	return sc.Err()
}

// TestStatuszSchema exercises the JSON document: fixed top-level fields,
// the runner progress block derived from registry counters, stage timings
// recorded through the StageTimer, and a custom section.
func TestStatuszSchema(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("runner.tasks_total").Add(10)
	reg.Counter("runner.tasks_completed").Add(4)
	reg.Counter("runner.tasks_failed").Add(1)
	reg.Counter("runner.panics").Add(2)
	reg.Gauge("runner.tasks_active").Add(3)
	ring := NewRing(8)
	ring.Emit(obs.Record{Name: "warm"})
	s := startTest(t, reg, ring)
	s.SetReady(true)
	s.SetStatus("guard", func() any { return map[string]any{"work_budget": 123} })

	stop := s.StageTimer().Start("estimate")
	stop()

	code, body := get(t, s, "/statusz")
	if code != 200 {
		t.Fatalf("statusz = %d", code)
	}
	var doc struct {
		Program    string         `json:"program"`
		PID        int            `json:"pid"`
		GoVersion  string         `json:"go_version"`
		UptimeSec  float64        `json:"uptime_sec"`
		Ready      bool           `json:"ready"`
		Goroutines int            `json:"goroutines"`
		Mem        map[string]any `json:"mem"`
		Runner     *struct {
			TasksTotal int64   `json:"tasks_total"`
			Completed  int64   `json:"completed"`
			Failed     int64   `json:"failed"`
			Panics     int64   `json:"panics"`
			Active     int64   `json:"active"`
			Remaining  int64   `json:"remaining"`
			RatePerSec float64 `json:"rate_per_sec"`
			EtaSec     float64 `json:"eta_sec"`
		} `json:"runner"`
		Stages map[string]struct {
			Count  int64   `json:"count"`
			P95Sec float64 `json:"p95_sec"`
		} `json:"infer_stages"`
		Events *struct {
			Buffered int    `json:"buffered"`
			NextSeq  uint64 `json:"next_seq"`
		} `json:"events"`
		Sections map[string]json.RawMessage `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz does not parse: %v\n%s", err, body)
	}
	if doc.Program != "live-test" || !doc.Ready || doc.GoVersion == "" || doc.Goroutines <= 0 {
		t.Fatalf("statusz header wrong: %s", body)
	}
	if doc.Runner == nil || doc.Runner.TasksTotal != 10 || doc.Runner.Completed != 4 ||
		doc.Runner.Failed != 1 || doc.Runner.Panics != 2 || doc.Runner.Active != 3 ||
		doc.Runner.Remaining != 5 {
		t.Fatalf("runner block wrong: %+v", doc.Runner)
	}
	if st, ok := doc.Stages["estimate"]; !ok || st.Count != 1 {
		t.Fatalf("stage block wrong: %+v", doc.Stages)
	}
	if doc.Events == nil || doc.Events.Buffered != 1 || doc.Events.NextSeq != 1 {
		t.Fatalf("events block wrong: %+v", doc.Events)
	}
	if _, ok := doc.Sections["guard"]; !ok {
		t.Fatalf("custom section missing: %s", body)
	}
}

// TestStatuszEta drives the progress baseline: terminal-task growth after
// the first observation must yield a positive rate and a finite ETA.
func TestStatuszEta(t *testing.T) {
	reg := obs.NewRegistry()
	total := reg.Counter("runner.tasks_total")
	done := reg.Counter("runner.tasks_completed")
	total.Add(100)
	s := startTest(t, reg, nil)
	if rs := s.observeProgress(); rs == nil || rs.RatePerSec != 0 {
		t.Fatalf("baseline observation = %+v", rs)
	}
	done.Add(10)
	time.Sleep(10 * time.Millisecond)
	rs := s.observeProgress()
	if rs == nil || rs.RatePerSec <= 0 || rs.EtaSec <= 0 || rs.EtaAt == "" {
		t.Fatalf("progress after completions = %+v", rs)
	}
	if want := float64(90) / rs.RatePerSec; rs.EtaSec != want {
		t.Fatalf("eta = %g, want remaining/rate = %g", rs.EtaSec, want)
	}
	if v, ok := s.reg.Gauge("live.runner_eta_seconds").Value(); !ok || v != rs.EtaSec {
		t.Fatalf("eta gauge = %g/%v, want %g", v, ok, rs.EtaSec)
	}
}

func TestNilServerIsInert(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.Err() != nil {
		t.Fatal("nil server leaks state")
	}
	s.SetReady(true)
	s.SetStatus("x", func() any { return 1 })
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := s.StageTimer(); st != nil {
		t.Fatalf("nil server stage timer = %#v, want nil interface", st)
	}
}

func TestRingTruncation(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(obs.Record{Name: fmt.Sprintf("r%d", i)})
	}
	recs, first, next := r.TailFrom(0)
	if len(recs) != 4 || first != 6 || next != 10 {
		t.Fatalf("tail = %d records, first=%d next=%d; want 4, 6, 10", len(recs), first, next)
	}
	if recs[0].Name != "r6" || recs[3].Name != "r9" {
		t.Fatalf("tail contents wrong: %v", recs)
	}
	// A cursor inside the retained window resumes exactly there.
	recs, first, _ = r.TailFrom(8)
	if len(recs) != 2 || first != 8 || recs[0].Name != "r8" {
		t.Fatalf("mid-window tail wrong: %d records, first=%d", len(recs), first)
	}
	// A fully drained cursor returns nothing.
	if recs, _, _ := r.TailFrom(10); len(recs) != 0 {
		t.Fatalf("drained tail returned %d records", len(recs))
	}
}

func TestRingWait(t *testing.T) {
	r := NewRing(2)
	ch := r.Wait()
	select {
	case <-ch:
		t.Fatal("wait channel closed before any emit")
	default:
	}
	r.Emit(obs.Record{Name: "x"})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("emit did not wake waiter")
	}
}

// sseClient reads SSE frames (id + data line pairs) from a live /events
// stream until n frames arrived or the deadline hit.
func sseClient(t *testing.T, s *Server, path string, n int) []string {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+s.Addr()+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var frames []string
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for len(frames) < n && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			frames = append(frames, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(frames) < n {
		t.Fatalf("got %d SSE frames, want %d (scan err %v)", len(frames), n, sc.Err())
	}
	return frames
}

// TestSSETailAndTruncation replays a truncated ring into an SSE client and
// checks that late records stream live.
func TestSSETailAndTruncation(t *testing.T) {
	ring := NewRing(3)
	for i := 0; i < 5; i++ {
		ring.Emit(obs.Record{Time: float64(i), Kind: obs.Instant, Comp: "t", Name: fmt.Sprintf("e%d", i)})
	}
	s := startTest(t, nil, ring)

	done := make(chan []string, 1)
	go func() { done <- sseClient(t, s, "/events", 4) }()
	// Give the client time to attach, then emit one live record.
	time.Sleep(100 * time.Millisecond)
	ring.Emit(obs.Record{Time: 5, Kind: obs.Instant, Comp: "t", Name: "e5"})

	frames := <-done
	// Capacity 3: e0/e1 evicted before the client attached; frames are the
	// retained tail e2..e4 plus the live e5.
	var names []string
	for _, f := range frames {
		var rec struct {
			N string `json:"n"`
		}
		if err := json.Unmarshal([]byte(f), &rec); err != nil {
			t.Fatalf("frame %q does not parse: %v", f, err)
		}
		names = append(names, rec.N)
	}
	if got := strings.Join(names, ","); got != "e2,e3,e4,e5" {
		t.Fatalf("SSE frames = %s, want e2,e3,e4,e5", got)
	}
}

// TestSSEShutdownDrain proves a graceful Shutdown unblocks a streaming
// client instead of hanging until the HTTP timeout — the SIGINT drain path.
func TestSSEShutdownDrain(t *testing.T) {
	ring := NewRing(8)
	ring.Emit(obs.Record{Name: "pre"})
	s := startTest(t, nil, ring)

	req, _ := http.NewRequest("GET", "http://"+s.Addr()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the replayed frame so the stream is demonstrably live.
	sc := bufio.NewScanner(resp.Body)
	sawData := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			sawData = true
			break
		}
	}
	if !sawData {
		t.Fatal("no replayed frame before shutdown")
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(5 * time.Second) }()
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on the streaming client")
	}
	// The client's stream must have ended.
	for sc.Scan() {
	}
	if code, _ := func() (int, error) {
		r, err := http.Get("http://" + s.Addr() + "/healthz")
		if err != nil {
			return 0, err
		}
		r.Body.Close()
		return r.StatusCode, nil
	}(); code == 200 {
		t.Fatal("server still answering after shutdown")
	}
}
