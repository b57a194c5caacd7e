package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// TestGolden runs every registered analyzer over its testdata package and
// compares the rendered diagnostics against testdata/<rule>.golden. Each
// testdata package contains both seeded violations and compliant code, so
// a match proves the rule fires where it must and stays silent where it
// must not.
func TestGolden(t *testing.T) {
	for _, az := range All {
		t.Run(az.Name, func(t *testing.T) {
			pkg, err := LoadDir(filepath.Join("testdata", "src", az.Name))
			if err != nil {
				t.Fatalf("loading testdata: %v", err)
			}
			var b strings.Builder
			for _, d := range RunAnalyzer(az, pkg) {
				fmt.Fprintln(&b, d)
			}
			got := b.String()
			if got == "" {
				t.Fatalf("analyzer %s produced no findings on its violation file", az.Name)
			}
			goldenPath := filepath.Join("testdata", az.Name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// repoLoad caches the full-module type-checked load: it is by far the most
// expensive part of module-level testing and three consumers below share it.
var repoLoad struct {
	once sync.Once
	pkgs []*Package
	cfg  *Config
	err  error
}

func loadRepo(tb testing.TB) ([]*Package, *Config) {
	tb.Helper()
	if testing.Short() {
		tb.Skip("loads and type-checks the whole module")
	}
	repoLoad.once.Do(func() {
		modDir, _, err := FindModuleRoot(".")
		if err != nil {
			repoLoad.err = err
			return
		}
		if repoLoad.cfg, err = LoadConfig(modDir); err != nil {
			repoLoad.err = err
			return
		}
		repoLoad.pkgs, repoLoad.err = LoadModule(".", nil)
	})
	if repoLoad.err != nil {
		tb.Fatal(repoLoad.err)
	}
	if len(repoLoad.pkgs) < 20 {
		tb.Fatalf("expected to load the full module, got %d packages", len(repoLoad.pkgs))
	}
	return repoLoad.pkgs, repoLoad.cfg
}

// TestRepoIsVetClean enforces the csi-vet gate from within go test: the
// whole module, under the shipped policy and .csi-vet.conf, must produce
// zero findings and zero stale suppressions (the -strict-ignores contract).
func TestRepoIsVetClean(t *testing.T) {
	pkgs, cfg := loadRepo(t)
	res := Run(NewModule(pkgs), All, cfg, 0)
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
	for _, d := range res.Stale {
		t.Errorf("%s", d)
	}
}

// taintAuditFiles is the audited inventory of nondeterminism reaches in the
// library packages: the only files where the taint engine may find a
// source reachable from an exported sink, each a designed, documented
// exception (see .csi-vet.conf and the //csi-vet:ignore sites). The test
// below pins the inventory: any new transitive wall-clock / map-order /
// rand / FS-order / select reach into the inference or report-building
// surface fails here with its full call path.
var taintAuditFiles = map[string]string{
	"internal/experiments/timing.go":  "deliberate latency measurement for the timing table",
	"internal/guard/runner/runner.go": "interrupt watcher select; cancellation only",
	"internal/guard/wallclock.go":     "opt-in -deadline liveness backstop",
	"internal/obs/export.go":          "wallNow behind the WallClockMeta opt-in",
	"internal/obs/live/live.go":       "-serve stage timing; durations stay in the ops plane's own registry",
	"internal/stream/recover.go":      "state-dir listing at open; replay order comes from sorted seq-numbered names (crash-matrix gate)",
	"internal/stream/stream.go":       "ingest/handoff selects; ordering never reaches a result (replay gate)",
}

func TestTaintAuditInventory(t *testing.T) {
	pkgs, _ := loadRepo(t)
	mod := NewModule(pkgs)
	pass := &ModulePass{Mod: mod, Rule: Taint.Name}
	Taint.RunModule(pass)
	seen := map[string]bool{}
	for _, d := range pass.diags {
		if _, audited := taintAuditFiles[d.Pos.Filename]; !audited {
			t.Errorf("new nondeterminism reach outside the audited inventory: %s", d)
			continue
		}
		seen[d.Pos.Filename] = true
	}
	for file := range taintAuditFiles {
		if !seen[file] {
			t.Errorf("audited taint site in %s no longer fires; prune it from the inventory and its suppression", file)
		}
	}
}

// TestSpawnAuditInventory pins the goroutine-budget audit the same way:
// the bounded muxsearch pool is the only spawn reachable from the
// inference entry points.
func TestSpawnAuditInventory(t *testing.T) {
	pkgs, _ := loadRepo(t)
	mod := NewModule(pkgs)
	pass := &ModulePass{Mod: mod, Rule: Spawnbound.Name}
	Spawnbound.RunModule(pass)
	for _, d := range pass.diags {
		if d.Pos.Filename != "internal/core/muxsearch.go" {
			t.Errorf("new goroutine spawn on an inference path: %s", d)
		}
	}
	if len(pass.diags) == 0 {
		t.Error("the audited muxsearch pool spawn no longer fires; prune its suppression")
	}
}

// BenchmarkCsiVetModule measures a full-module analysis pass — call-graph
// build included — over the already-loaded packages, and trips if it drifts
// past a generous per-op bound so the pre-merge gate stays cheap.
func BenchmarkCsiVetModule(b *testing.B) {
	pkgs, cfg := loadRepo(b)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		// A fresh Module each iteration forces the graph rebuild, which is
		// what the gate pays on every run.
		res := Run(NewModule(pkgs), All, cfg, 0)
		if len(res.Diags) != 0 {
			b.Fatalf("module not clean during benchmark: %v", res.Diags[0])
		}
	}
	b.StopTimer()
	if perOp := time.Since(start) / time.Duration(b.N); perOp > 10*time.Second {
		b.Fatalf("full-module analysis took %v per op; the csi-vet gate is no longer cheap", perOp)
	}
}

func TestByName(t *testing.T) {
	found, unknown := ByName([]string{"floatcmp", "nope", "maporder"})
	if len(found) != 2 || found[0] != Floatcmp || found[1] != Maporder {
		t.Errorf("found = %v", found)
	}
	if len(unknown) != 1 || unknown[0] != "nope" {
		t.Errorf("unknown = %v", unknown)
	}
}

func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, az := range All {
		if az.Name == "" || az.Doc == "" {
			t.Errorf("analyzer %q incompletely registered", az.Name)
		}
		if (az.Run == nil) == (az.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", az.Name)
		}
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
	}
}
