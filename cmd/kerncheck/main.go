// Command kerncheck is the kernel's static-analysis multichecker: it
// runs the ten kerncheck analyzers (anyboundary, compartguard,
// deadexport, droppederr, errptr, lockorder, ownescape, refbalance,
// sleepatomic, useaftermove) over every package of the module —
// cmd/kbench's nested module included — and enforces the
// zero-findings policy from DESIGN.md: ANY finding anywhere in the
// tree fails the build.
//
// Usage:
//
//	kerncheck                      # enforce (CI mode); exit 1 on any finding
//	kerncheck -report              # also print per-subsystem and CWE tables
//	kerncheck -json                # machine-readable report + per-pass timing
//	kerncheck -list                # print every finding
//	kerncheck internal/safemod     # report only packages under these prefixes
//
// A narrowed run still loads the whole module: deadexport's use set
// is whole-program, only the reporting is narrowed.
//
// Individual findings can be suppressed with an audited directive:
//
//	//kerncheck:ignore <analyzer> <reason...>
//
// The reason is mandatory; a bare directive is void. A directive that
// names no analyzer is a finding, and so, in an un-narrowed run, is
// one that suppresses nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"safelinux/internal/analysis"
	"safelinux/internal/analysis/passes/anyboundary"
	"safelinux/internal/analysis/passes/compartguard"
	"safelinux/internal/analysis/passes/deadexport"
	"safelinux/internal/analysis/passes/droppederr"
	"safelinux/internal/analysis/passes/errptr"
	"safelinux/internal/analysis/passes/lockorder"
	"safelinux/internal/analysis/passes/ownescape"
	"safelinux/internal/analysis/passes/refbalance"
	"safelinux/internal/analysis/passes/sleepatomic"
	"safelinux/internal/analysis/passes/useaftermove"
	"safelinux/internal/cvedb"
)

var analyzers = []*analysis.Analyzer{
	anyboundary.Analyzer,
	compartguard.Analyzer,
	deadexport.Analyzer,
	droppederr.Analyzer,
	errptr.Analyzer,
	lockorder.Analyzer,
	ownescape.Analyzer,
	refbalance.Analyzer,
	sleepatomic.Analyzer,
	useaftermove.Analyzer,
}

// jsonReport is the -json payload: the aggregate report plus the raw
// findings and per-analyzer wall time, so CI can both gate and graph.
type jsonReport struct {
	analysis.Report
	Findings []analysis.Finding `json:"findings"`
	Packages int                `json:"packages"`
	// TimingMS maps analyzer -> total wall milliseconds across all
	// packages; WallMS is the whole run including loading.
	TimingMS map[string]float64 `json:"timing_ms"`
	WallMS   float64            `json:"wall_ms"`
}

func main() {
	var (
		report = flag.Bool("report", false,
			"print per-subsystem violation counts and the cvedb CWE categorization")
		list   = flag.Bool("list", false, "print every finding")
		asJSON = flag.Bool("json", false, "emit a JSON report with findings and per-pass timing")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kerncheck [flags] [package-prefix ...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintln(flag.CommandLine.Output(), "\nFlags:")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(*report, *list, *asJSON, flag.Args()))
}

// result is one kerncheck run before it is printed.
type result struct {
	findings []analysis.Finding
	packages int
	timing   map[string]time.Duration
}

// check loads every package of the module and runs the analyzers over
// those under prefixes (all of them when prefixes is empty).
func check(prefixes []string) (result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return result{}, err
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return result{}, err
	}
	paths, err := analysis.ListPackages(root)
	if err != nil {
		return result{}, err
	}
	loader := analysis.NewLoader()
	var program, scope []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.LoadDir(analysis.DirForImport(root, p), p)
		if err != nil {
			return result{}, err
		}
		program = append(program, pkg)
		if inScope(p, prefixes) {
			scope = append(scope, pkg)
		}
	}
	c := &analysis.Checker{
		Analyzers:    analyzers,
		Program:      program,
		ReportUnused: len(prefixes) == 0,
		Timing:       make(map[string]time.Duration, len(analyzers)),
	}
	res := result{packages: len(scope), timing: c.Timing}
	for _, pkg := range scope {
		fs, err := c.Run(pkg)
		if err != nil {
			return result{}, err
		}
		res.findings = append(res.findings, fs...)
	}
	analysis.SortFindings(res.findings)
	return res, nil
}

func inScope(path string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, pre := range prefixes {
		if strings.HasPrefix(path, pre) || strings.HasPrefix(path, analysis.ModulePath+"/"+pre) {
			return true
		}
	}
	return false
}

func run(report, list, asJSON bool, prefixes []string) int {
	start := time.Now()
	res, err := check(prefixes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kerncheck:", err)
		return 2
	}
	findings := res.findings

	if list {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	if asJSON {
		rep := jsonReport{
			Report:   analysis.NewReport(findings),
			Findings: findings,
			Packages: res.packages,
			TimingMS: make(map[string]float64, len(res.timing)),
			WallMS:   float64(time.Since(start).Microseconds()) / 1000,
		}
		if rep.Findings == nil {
			rep.Findings = []analysis.Finding{}
		}
		for name, d := range res.timing {
			rep.TimingMS[name] = float64(d.Microseconds()) / 1000
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "kerncheck:", err)
			return 2
		}
	} else if report {
		rep := analysis.NewReport(findings)
		fmt.Print(rep.Render())
		fmt.Println()
		fmt.Print(cvedb.RenderStaticFindings(findings))
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kerncheck: %d violation(s) against the zero-findings policy:\n", len(findings))
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "  (fix the findings or suppress each one with an audited\n"+
			"   //kerncheck:ignore <analyzer> <reason> directive)\n")
		return 1
	}
	if !report && !list && !asJSON {
		where := "tree-wide"
		if len(prefixes) > 0 {
			where = "in scope"
		}
		fmt.Printf("kerncheck: ok (%d package(s), %d passes, zero findings %s)\n",
			res.packages, len(analyzers), where)
	}
	return 0
}
