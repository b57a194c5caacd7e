// Command csi-vet runs the repository's static-analysis suite: repo-specific
// determinism and inference-correctness rules that ordinary go vet cannot
// know about, including the interprocedural taint and concurrency rules
// built on the module-wide call graph. It exits nonzero when any rule fires.
//
// Usage:
//
//	csi-vet [flags] [packages]
//
// Packages are module-relative patterns ("./...", "internal/core",
// "internal/..."); the default is "./...". Scopes and allowlists come from
// built-in policy (internal/analysis.DefaultConfig) merged with the
// module's .csi-vet.conf. See DESIGN.md "Correctness tooling".
//
// Flags:
//
//	-list            list registered rules and exit
//	-rules a,b       run only the named rules
//	-format f        output format: text (default), json, or sarif
//	-strict-ignores  fail (exit 1) when a suppression is stale
//	-parallel n      per-package analysis workers (default GOMAXPROCS)
//
// Exit status is 0 when clean, 1 on findings (or stale suppressions under
// -strict-ignores), 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"csi/internal/analysis"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list registered rules and exit")
		rules    = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		format   = flag.String("format", "text", "output format: text, json, or sarif")
		strict   = flag.Bool("strict-ignores", false, "exit nonzero when a suppression no longer suppresses anything")
		parallel = flag.Int("parallel", 0, "per-package analysis workers (default GOMAXPROCS)")
	)
	flag.Parse()
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "csi-vet: unknown format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, az := range analysis.All {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return
	}

	azs := analysis.All
	if *rules != "" {
		var unknown []string
		azs, unknown = analysis.ByName(strings.Split(*rules, ","))
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "csi-vet: unknown rules: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	modDir, _, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	cfg, err := analysis.LoadConfig(modDir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.LoadModule(wd, flag.Args())
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "csi-vet: no packages match %v\n", flag.Args())
		os.Exit(2)
	}

	res := analysis.Run(analysis.NewModule(pkgs), azs, cfg, *parallel)

	switch *format {
	case "json":
		writeJSON(os.Stdout, azs, res)
	case "sarif":
		writeSARIF(os.Stdout, azs, res)
	default:
		for _, d := range res.Diags {
			fmt.Println(d)
		}
		for _, d := range res.Stale {
			fmt.Println(d)
		}
	}

	fail := len(res.Diags) > 0
	if *strict && len(res.Stale) > 0 {
		fail = true
	}
	if fail {
		fmt.Fprintf(os.Stderr, "csi-vet: %d finding(s), %d stale suppression(s)\n", len(res.Diags), len(res.Stale))
		os.Exit(1)
	}
	if len(res.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "csi-vet: %d stale suppression(s) (run with -strict-ignores to fail)\n", len(res.Stale))
	}
}

// finding is the machine-readable shape of one diagnostic.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func toFindings(diags []analysis.Diagnostic) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Msg,
		})
	}
	return out
}

// report is the top-level -format json document: the findings, the stale
// suppressions, and the full audited suppression inventory. check.sh
// archives it as csi-vet.json so CI diffs findings structurally.
type report struct {
	Schema       string                       `json:"schema"`
	Rules        []string                     `json:"rules"`
	Findings     []finding                    `json:"findings"`
	Stale        []finding                    `json:"stale"`
	Suppressions []analysis.SuppressionRecord `json:"suppressions"`
}

func writeJSON(w io.Writer, azs []*analysis.Analyzer, res *analysis.Result) {
	doc := report{
		Schema:       "csi-vet/v2",
		Rules:        ruleNames(azs),
		Findings:     toFindings(res.Diags),
		Stale:        toFindings(res.Stale),
		Suppressions: res.Suppressions,
	}
	if doc.Suppressions == nil {
		doc.Suppressions = []analysis.SuppressionRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

// Minimal SARIF 2.1.0 so the findings plug into code-scanning UIs.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w io.Writer, azs []*analysis.Analyzer, res *analysis.Result) {
	driver := sarifDriver{Name: "csi-vet"}
	for _, az := range azs {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               az.Name,
			ShortDescription: sarifMessage{Text: az.Doc},
		})
	}
	results := []sarifResult{}
	emit := func(diags []analysis.Diagnostic, level string) {
		for _, d := range diags {
			results = append(results, sarifResult{
				RuleID:  d.Rule,
				Level:   level,
				Message: sarifMessage{Text: d.Msg},
				Locations: []sarifLocation{{
					PhysicalLocation: sarifPhysical{
						ArtifactLocation: sarifArtifact{URI: d.Pos.Filename},
						Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
					},
				}},
			})
		}
	}
	emit(res.Diags, "error")
	emit(res.Stale, "warning")
	doc := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func ruleNames(azs []*analysis.Analyzer) []string {
	names := make([]string, 0, len(azs))
	for _, az := range azs {
		names = append(names, az.Name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "csi-vet: %v\n", err)
	os.Exit(2)
}
