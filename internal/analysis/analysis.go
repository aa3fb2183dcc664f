// Package analysis is the kernel's static-analysis framework: a
// self-contained re-implementation of the golang.org/x/tools
// go/analysis Analyzer/Pass model on top of the standard library's
// go/ast + go/types (the build environment is hermetic, so the x/tools
// module is deliberately not a dependency).
//
// The framework exists to move the paper's safety steps from "found at
// runtime by a test that happens to execute the bug" to "guaranteed at
// compile time": each analyzer under passes/ enforces one invariant
// that the runtime machinery (lockdep, the ownership checker, the
// refinement engine) can only check dynamically. CI fails on ANY
// finding anywhere in the tree — see cmd/kerncheck for the
// enforcement policy. Whole-program passes (deadexport) see every
// loaded package through Analyzer.Prepare.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one static check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in reports and kerncheck:ignore
	// directives. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by kerncheck -help.
	Doc string
	// Run performs the check on one package and reports diagnostics
	// through the pass.
	Run func(*Pass) error
	// Prepare, set instead of Run by a whole-program pass, runs once
	// per program before any package is checked and returns the
	// per-package check, bound to the cross-package state it
	// collected.
	Prepare func(program []*Package) (func(*Pass) error, error)
}

// Pass carries one analyzed package to an analyzer, mirroring
// go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path ("safelinux/internal/linuxlike/vfs").
	PkgPath string

	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos under category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding before position resolution.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Finding is one resolved violation, the unit of reports.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	// Pkg is the import path of the offending package.
	Pkg string `json:"pkg"`
	// Pos is "file.go:line:col" with the file path relative to the
	// package directory (stable across checkouts).
	Pos     string `json:"pos"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: [%s/%s] %s", f.Pkg, f.Pos, f.Analyzer, f.Category, f.Message)
}

// SortFindings orders findings for stable output.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- suppression directives ---

// ignoreDirective is the audited escape hatch, modeled on //nolint:
//
//	//kerncheck:ignore anyboundary reflection sink, any is inherent
//
// applies to findings of the named analyzer ("all" for every
// analyzer) reported on the directive's line, the next line, or any
// line of the declaration the directive is attached to as a doc
// comment. Each use must carry a reason; bare directives are ignored
// (so they cannot silently accumulate). A directive naming no analyzer
// of the run is itself a finding, and so, in a run over the whole
// tree, is one that suppressed nothing: neither may read as audited.
const ignorePrefix = "//kerncheck:ignore "

// directive is one parsed ignore comment.
type directive struct {
	pos  token.Pos
	name string
	used bool
}

// ignoreSet records which directives cover each line of one file.
type ignoreSet struct {
	all    []*directive
	byLine map[int][]*directive
}

// collectIgnores scans a file's comments for directives. Directives in
// a declaration's doc comment suppress the whole declaration's span.
func collectIgnores(fset *token.FileSet, file *ast.File) ignoreSet {
	set := ignoreSet{byLine: make(map[int][]*directive)}
	parsed := make(map[*ast.Comment]*directive)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			parts := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
			if !strings.HasPrefix(c.Text, ignorePrefix) || len(parts) < 2 {
				// Not a directive, or no reason given: void by design.
				continue
			}
			d := &directive{pos: c.Pos(), name: parts[0]}
			parsed[c] = d
			set.all = append(set.all, d)
			line := fset.Position(c.Pos()).Line
			set.byLine[line] = append(set.byLine[line], d)
			set.byLine[line+1] = append(set.byLine[line+1], d)
		}
	}
	// Doc-comment directives cover the full declaration span.
	for _, decl := range file.Decls {
		var doc *ast.CommentGroup
		switch d := decl.(type) {
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.GenDecl:
			doc = d.Doc
		}
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if d := parsed[c]; d != nil {
				from := fset.Position(decl.Pos()).Line
				to := fset.Position(decl.End()).Line
				for line := from; line <= to; line++ {
					set.byLine[line] = append(set.byLine[line], d)
				}
			}
		}
	}
	return set
}

// suppress reports whether a directive covers analyzer on line, and
// marks every covering directive used.
func (s ignoreSet) suppress(analyzer string, line int) bool {
	hit := false
	for _, d := range s.byLine[line] {
		if d.name == analyzer || d.name == "all" {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Checker applies a fixed list of analyzers to the packages of one
// program.
type Checker struct {
	Analyzers []*Analyzer
	// Program is every package of the run, including those outside
	// the reporting scope; whole-program analyzers prepare over it.
	Program []*Package
	// ReportUnused makes a directive that suppressed nothing a
	// finding. Set it only when every package of Program is checked.
	ReportUnused bool
	// Timing accumulates each analyzer's wall time, its Prepare
	// included.
	Timing map[string]time.Duration

	prepared map[*Analyzer]func(*Pass) error
}

// Run applies the analyzers to pkg and returns the surviving findings,
// sorted. Suppressed diagnostics (kerncheck:ignore) are dropped here;
// unknown and (with ReportUnused) unused directives are added.
func (c *Checker) Run(pkg *Package) ([]Finding, error) {
	if c.Timing == nil {
		c.Timing = make(map[string]time.Duration)
	}
	if c.prepared == nil {
		c.prepared = make(map[*Analyzer]func(*Pass) error)
	}
	ignores := make(map[*token.File]ignoreSet)
	for _, f := range pkg.Files {
		ignores[pkg.Fset.File(f.Pos())] = collectIgnores(pkg.Fset, f)
	}
	var out []Finding
	add := func(analyzer string, d Diagnostic) {
		pos := pkg.Fset.Position(d.Pos)
		out = append(out, Finding{
			Analyzer: analyzer,
			Category: d.Category,
			Pkg:      pkg.Path,
			Pos:      fmt.Sprintf("%s:%d:%d", shortFile(pos.Filename), pos.Line, pos.Column),
			Message:  d.Message,
		})
	}
	known := map[string]bool{"all": true}
	for _, a := range c.Analyzers {
		known[a.Name] = true
		t0 := time.Now()
		run := a.Run
		if a.Prepare != nil {
			if c.prepared[a] == nil {
				check, err := a.Prepare(c.Program)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", a.Name, err)
				}
				c.prepared[a] = check
			}
			run = c.prepared[a]
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.Path,
		}
		pass.report = func(d Diagnostic) {
			if tf := pkg.Fset.File(d.Pos); tf != nil {
				if set, ok := ignores[tf]; ok && set.suppress(a.Name, tf.Line(d.Pos)) {
					return
				}
			}
			add(a.Name, d)
		}
		err := run(pass)
		c.Timing[a.Name] += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	for _, set := range ignores {
		for _, d := range set.all {
			switch {
			case !known[d.name]:
				add("kerncheck", Diagnostic{Pos: d.pos, Category: "ignore",
					Message: fmt.Sprintf("ignore directive names unknown analyzer %q", d.name)})
			case c.ReportUnused && !d.used:
				add("kerncheck", Diagnostic{Pos: d.pos, Category: "ignore",
					Message: fmt.Sprintf("ignore directive for %s suppresses nothing", d.name)})
			}
		}
	}
	SortFindings(out)
	return out, nil
}

// shortFile strips directories from a file path: reported positions
// must not depend on where the repo is checked out.
func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
