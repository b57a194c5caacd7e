package live

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csi/internal/obs"
	"csi/internal/testleak"
)

// TestOutputsFlushEveryOutput configures every output, records through the
// tracer, and checks that Close leaves each file behind and stops serving.
func TestOutputsFlushEveryOutput(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	ops, err := Setup(Config{
		Program: "outputs-test", Serve: "127.0.0.1:0",
		TraceOut: path("trace.jsonl"), Metrics: path("metrics.txt"),
		CPUProfile: path("cpu.prof"), MemProfile: path("mem.prof"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops.Tracer == nil || ops.Server == nil {
		t.Fatalf("tracer %v, server %v: want both live", ops.Tracer, ops.Server)
	}
	ops.Tracer.Event("test", "hello", obs.Int("n", 1))
	ops.Tracer.Metrics().Counter("test.events").Add(1)
	if code, _ := get(t, ops.Server, "/healthz"); code != 200 {
		t.Fatalf("healthz = %d, want 200", code)
	}
	addr := ops.Server.Addr()
	if err := ops.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"cpu.prof", "mem.prof", "metrics.txt"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: stat %v, want a non-empty file", name, err)
		}
	}
	f, err := os.Open(path("trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadJSONEvents(f)
	if err != nil || len(recs) != 1 || recs[0].Name != "hello" {
		t.Fatalf("trace read back %d records (%v), want the one event", len(recs), err)
	}
	metrics, err := os.ReadFile(path("metrics.txt"))
	if err != nil || !strings.Contains(string(metrics), "test.events") {
		t.Fatalf("metrics dump %q (%v) lacks test.events", metrics, err)
	}
	if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("ops plane still serving after Close")
	}
}

// TestOutputsFlushWritesOnce pins that an early Flush is the only write:
// records emitted afterwards do not reach the trace Close would write.
func TestOutputsFlushWritesOnce(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	ops, err := Setup(Config{Program: "outputs-test", TraceOut: trace})
	if err != nil {
		t.Fatal(err)
	}
	ops.Tracer.Event("test", "before")
	if err := ops.Flush(); err != nil {
		t.Fatal(err)
	}
	ops.Tracer.Event("test", "after")
	if err := ops.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONEvents(strings.NewReader(string(data)))
	if err != nil || len(recs) != 1 || recs[0].Name != "before" {
		t.Fatalf("trace holds %d records (%v), want only the one before Flush", len(recs), err)
	}
}

// TestOutputsOffPath pins the zero-overhead off path: with no output
// configured there is no tracer and no server, and Close is a no-op.
func TestOutputsOffPath(t *testing.T) {
	ops, err := Setup(Config{Program: "outputs-test"})
	if err != nil {
		t.Fatal(err)
	}
	if ops.Tracer != nil || ops.Server != nil {
		t.Fatalf("tracer %v, server %v: want both nil", ops.Tracer, ops.Server)
	}
	if ops.Server.StageTimer() != nil {
		t.Fatal("StageTimer on the off path is not the nil interface")
	}
	if err := ops.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOutputsSetupError: a CPU profile that cannot be created fails Setup
// and shuts down the ops plane it had already started.
func TestOutputsSetupError(t *testing.T) {
	testleak.Check(t)
	_, err := Setup(Config{
		Program: "outputs-test", Serve: "127.0.0.1:0",
		CPUProfile: filepath.Join(t.TempDir(), "missing", "cpu.prof"),
	})
	if err == nil {
		t.Fatal("Setup succeeded with an uncreatable CPU profile path")
	}
}
