// Package analysistest runs analyzers over testdata packages and
// checks their diagnostics against expectations written in the source,
// in the style of golang.org/x/tools/go/analysis/analysistest:
//
//	bad := kbase.ErrPtr[vfs.Inode](err) // want `use typedapi\.Result`
//
// Each `// want "re"` (or backquoted) comment expects one diagnostic
// on its line whose message matches the regular expression; several
// patterns may follow one want. Lines without a want comment must
// produce no diagnostics.
//
//kerncheck:ignore deadexport a test helper: only the passes' tests import it
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"safelinux/internal/analysis"
)

// expectation is one want pattern awaiting a diagnostic.
type expectation struct {
	pkg  string
	file string // basename
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts expectations from one parsed file.
func parseWants(t testing.TB, pkg *analysis.Package, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	file := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, "// want ")
			if idx < 0 {
				continue
			}
			rest := c.Text[idx+len("// want "):]
			line := pkg.Fset.Position(c.Pos()).Line
			matches := wantRE.FindAllString(rest, -1)
			if len(matches) == 0 {
				t.Fatalf("%s:%d: malformed want comment: %s", file, line, c.Text)
			}
			for _, m := range matches {
				var pat string
				if strings.HasPrefix(m, "`") {
					pat = strings.Trim(m, "`")
				} else {
					var err error
					pat, err = strconv.Unquote(m)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, m, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", file, line, pat, err)
				}
				out = append(out, &expectation{pkg: pkg.Path, file: file, line: line, re: re})
			}
		}
	}
	return out
}

// Run loads the package in dir (an on-disk testdata package directory)
// under the synthetic import path importPath, applies the analyzer,
// and matches diagnostics against want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	check(t, a, []*analysis.Package{pkg})
}

// RunProgram loads the testdata packages testdata/src/<path> for each
// path as one program (they may import each other by those paths),
// applies the analyzer to every one of them, and matches diagnostics
// against want comments in all their files.
func RunProgram(t *testing.T, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader := analysis.NewLoader()
	for _, p := range paths {
		loader.Map(p, TestdataDir(p))
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.LoadDir(TestdataDir(p), p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	check(t, a, pkgs)
}

func check(t *testing.T, a *analysis.Analyzer, pkgs []*analysis.Package) {
	t.Helper()
	c := &analysis.Checker{Analyzers: []*analysis.Analyzer{a}, Program: pkgs, ReportUnused: true}
	var wants []*expectation
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			wants = append(wants, parseWants(t, pkg, f)...)
		}
		fs, err := c.Run(pkg)
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, pkg.Path, err)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		// Pos is "file.go:line:col".
		parts := strings.SplitN(f.Pos, ":", 3)
		if len(parts) < 2 {
			t.Fatalf("malformed position %q", f.Pos)
		}
		line, _ := strconv.Atoi(parts[1])
		matched := false
		for _, w := range wants {
			if w.hit || w.pkg != f.Pkg || w.file != parts[0] || w.line != line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: %s: unexpected diagnostic: %s", f.Pkg, f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: %s:%d: no diagnostic matching %q", w.pkg, w.file, w.line, w.re)
		}
	}
}

// TestdataDir returns testdata/src/<name> relative to the caller's
// package directory.
func TestdataDir(name string) string {
	return filepath.Join("testdata", "src", name)
}
