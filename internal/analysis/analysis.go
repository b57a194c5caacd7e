// Package analysis is a self-contained static-analysis framework for the
// csi module, built only on the standard library's go/ast, go/parser,
// go/token, and go/types. It exists to machine-enforce the correctness
// invariants the CSI reproduction depends on: the discrete-event
// simulators must be bit-for-bit deterministic, the size-matching core
// must never compare floats with ==, library packages must not write to
// stdout, and experiment reports must not depend on map iteration order.
//
// The framework loads every package of the module through a shared
// type-checked load (LoadModule), then runs each registered Analyzer over
// each package in its configured scope. Rules come in two shapes: a
// per-package Run(*Pass) for local, syntactic invariants, and a
// module-wide RunModule(*ModulePass) for interprocedural rules that walk
// the shared call graph (Module.Graph) — the nondeterminism taint engine
// and the concurrency-safety rules. Adding a local rule is a ~50-line
// change: implement Run(*Pass), append the Analyzer to All, and drop a
// violating file plus a .golden file under testdata/.
//
// Findings can be suppressed three ways, from coarse to fine: a scope
// entry restricts a rule to a subtree, an allow entry in the config (or
// the module's .csi-vet.conf) exempts a file or directory, and a
// "//csi-vet:ignore <rule> -- <reason>" comment on the offending line (or
// the line above) exempts a single site. Every suppression is audited:
// Run tracks which directives actually matched a finding and reports the
// stale ones, so the allowlist stays an inventory of justified exceptions
// instead of a growing blind spot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"runtime"
	"sort"
	"sync"
)

// An Analyzer is one named rule. Exactly one of Run and RunModule is set:
// Run inspects a single type-checked package, RunModule inspects the whole
// module at once (interprocedural rules).
type Analyzer struct {
	// Name is the rule identifier used in diagnostics, config directives,
	// and ignore comments (e.g. "determinism").
	Name string
	// Doc is a one-line description printed by csi-vet -list.
	Doc string
	// Run inspects pass.Files and calls pass.Reportf for each finding.
	Run func(*Pass)
	// RunModule inspects every package of the module through the shared
	// Module (call graph included) and calls pass.Reportf per finding.
	RunModule func(*ModulePass)
}

// A Diagnostic is one finding, positioned at a token.Position whose
// Filename is relative to the module root.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// A Module couples the loaded packages with everything interprocedural
// rules share: the lazily built call graph and the module-wide filename
// map. All packages of a Module come from one loader and share one FileSet.
type Module struct {
	Pkgs []*Package
	Fset *token.FileSet

	relByAbs  map[string]string
	graphOnce sync.Once
	graph     *Graph
}

// NewModule wraps already-loaded packages. The call graph is built on
// first use of Graph.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, relByAbs: map[string]string{}}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			m.relByAbs[pkg.Fset.Position(f.Pos()).Filename] = pkg.Filenames[i]
		}
	}
	return m
}

// Graph returns the module-wide call graph, building it on first call.
func (m *Module) Graph() *Graph {
	m.graphOnce.Do(func() { m.graph = buildGraph(m.Pkgs) })
	return m.graph
}

// rel maps an absolute parsed filename to the module-relative name
// recorded at load time.
func (m *Module) rel(abs string) string {
	if r, ok := m.relByAbs[abs]; ok {
		return r
	}
	return abs
}

// position resolves pos into a module-relative token.Position.
func (m *Module) position(pos token.Pos) token.Position {
	p := m.Fset.Position(pos)
	p.Filename = m.rel(p.Filename)
	return p
}

// A Pass couples one per-package Analyzer run to one Package. It exposes
// the package syntax and type information and collects diagnostics.
type Pass struct {
	*Package
	Rule  string
	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	position.Filename = p.relFilename(position.Filename)
	p.diags = append(p.diags, Diagnostic{Pos: position, Rule: p.Rule, Msg: fmt.Sprintf(format, args...)})
}

// relFilename maps an absolute parsed filename back to the module-relative
// name recorded at load time.
func (p *Pass) relFilename(abs string) string {
	for i, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename == abs {
			return p.Filenames[i]
		}
	}
	return abs
}

// A ModulePass couples one module-wide Analyzer run to the whole Module.
type ModulePass struct {
	Mod   *Module
	Rule  string
	diags []Diagnostic
}

// Reportf records a finding at pos, which may sit in any package of the
// module.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:  p.Mod.position(pos),
		Rule: p.Rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzer applies one analyzer to one package, honoring ignore
// comments but not the config (scope and allowlists are the driver's
// concern; see Run). Module-wide analyzers see a single-package module.
// Exposed for golden-file self-tests.
func RunAnalyzer(az *Analyzer, pkg *Package) []Diagnostic {
	mod := NewModule([]*Package{pkg})
	var diags []Diagnostic
	if az.RunModule != nil {
		pass := &ModulePass{Mod: mod, Rule: az.Name}
		az.RunModule(pass)
		diags = pass.diags
	} else {
		pass := &Pass{Package: pkg, Rule: az.Name}
		az.Run(pass)
		diags = pass.diags
	}
	ix := buildIgnoreIndex(mod.Pkgs)
	var out []Diagnostic
	for _, d := range diags {
		if !ix.suppress(d) {
			out = append(out, d)
		}
	}
	return sortDiagnostics(out)
}

// A Result is one full analysis run: the surviving findings, the stale
// suppressions (directives and conf allowlist entries that no longer
// suppress anything), and the complete suppression inventory.
type Result struct {
	// Diags are the findings that survived scopes, allowlists, and ignore
	// comments, sorted by file, line, column, rule.
	Diags []Diagnostic
	// Stale reports every suppression that did nothing this run (rule
	// "suppression"), provided its rule was among those run.
	Stale []Diagnostic
	// Suppressions is the audited inventory: every ignore directive and
	// every .csi-vet.conf allow entry, with whether it was exercised.
	Suppressions []SuppressionRecord
}

// A SuppressionRecord is one entry of the suppression inventory.
type SuppressionRecord struct {
	// Kind is "ignore" (//csi-vet:ignore comment) or "allow"
	// (.csi-vet.conf allow directive).
	Kind string `json:"kind"`
	// File and Line locate the directive (the conf file for allows).
	File string `json:"file"`
	Line int    `json:"line"`
	// Rule is the rule the entry suppresses ("all" wildcards every rule).
	Rule string `json:"rule"`
	// Path is the exempted file or subtree (allow entries only).
	Path string `json:"path,omitempty"`
	// Reason is the justification after "--" (ignore comments only).
	Reason string `json:"reason,omitempty"`
	// Active reports whether the entry suppressed at least one finding.
	Active bool `json:"active"`
}

// Run applies every analyzer to the module within its configured scope,
// drops allowlisted and ignore-commented findings, and audits the
// suppressions. Per-package analyzers fan out over up to workers
// goroutines (<= 0 means GOMAXPROCS); the result is deterministic
// regardless of schedule. Module-wide analyzers run once each, against a
// call graph built serially beforehand.
func Run(mod *Module, azs []*Analyzer, cfg *Config, workers int) *Result {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The graph build mutates lazy go/types state (method sets, interface
	// satisfaction); do it before the concurrent fan-out so analyzer
	// goroutines only ever read.
	for _, az := range azs {
		if az.RunModule != nil {
			mod.Graph()
			break
		}
	}

	// One work unit per (per-package analyzer, in-scope package) plus one
	// per module analyzer. Raw diagnostics land in per-unit slots, so the
	// merge order is schedule-independent.
	type unit struct {
		az  *Analyzer
		pkg *Package // nil for module analyzers
	}
	var units []unit
	for _, az := range azs {
		if az.RunModule != nil {
			units = append(units, unit{az: az})
			continue
		}
		for _, pkg := range mod.Pkgs {
			if cfg.inScope(az.Name, pkg.RelPath) {
				units = append(units, unit{az: az, pkg: pkg})
			}
		}
	}
	raw := make([][]Diagnostic, len(units))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, u := range units {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, u unit) {
			defer func() { <-sem; wg.Done() }()
			if u.pkg != nil {
				pass := &Pass{Package: u.pkg, Rule: u.az.Name}
				u.az.Run(pass)
				raw[i] = pass.diags
				return
			}
			pass := &ModulePass{Mod: mod, Rule: u.az.Name}
			u.az.RunModule(pass)
			raw[i] = pass.diags
		}(i, u)
	}
	wg.Wait()

	// Serial filter phase: ignore comments first (matching the historical
	// per-package order), then scope (module rules report anywhere, so
	// their diagnostics are scope-checked by position), then allowlists.
	// Both suppression layers record what they matched for the audit.
	ix := buildIgnoreIndex(mod.Pkgs)
	res := &Result{}
	for i, u := range units {
		for _, d := range raw[i] {
			if ix.suppress(d) {
				continue
			}
			if u.pkg == nil && !cfg.inScope(d.Rule, path.Dir(d.Pos.Filename)) {
				continue
			}
			if cfg.allowed(d.Rule, d.Pos.Filename) {
				continue
			}
			res.Diags = append(res.Diags, d)
		}
	}
	res.Diags = sortDiagnostics(res.Diags)

	ran := map[string]bool{}
	for _, az := range azs {
		ran[az.Name] = true
	}
	loadedDirs := map[string]bool{}
	for _, pkg := range mod.Pkgs {
		loadedDirs[pkg.RelPath] = true
	}
	res.Stale = staleSuppressions(ix, cfg, ran, loadedDirs)
	res.Suppressions = suppressionInventory(ix, cfg)
	return res
}

func sortDiagnostics(out []Diagnostic) []Diagnostic {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	// Module rules can rediscover the same (pos, rule, msg) through
	// different entry points; keep the first.
	dedup := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}

// inspect walks every file of the pass in source order, calling fn for
// each node; fn returning false prunes the subtree.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
