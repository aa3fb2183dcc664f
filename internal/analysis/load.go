package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (or a synthetic path for testdata).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ModulePath is this repository's module path (from go.mod).
const ModulePath = "safelinux"

// Loader parses and type-checks packages from source. In-module
// imports are served from the packages this loader has already
// checked (loading each on first use), so every package of one run
// shares a single types.Object per declaration; the standard library
// comes from the go/importer source importer. No compiled export data
// or network access is needed — analysis works on a bare checkout.
type Loader struct {
	Fset *token.FileSet
	std  types.Importer
	root string
	// dirs maps import paths outside the module tree (testdata
	// packages) to their directories.
	dirs map[string]string
	pkgs map[string]*Package
}

// NewLoader creates a loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: make(map[string]string),
		pkgs: make(map[string]*Package),
	}
}

// Map serves imports of importPath from dir, for packages outside
// the module tree (testdata).
func (l *Loader) Map(importPath, dir string) {
	l.dirs[importPath] = dir
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok && (path == ModulePath || strings.HasPrefix(path, ModulePath+"/")) {
		if l.root == "" {
			root, err := FindModuleRoot(".")
			if err != nil {
				return nil, err
			}
			l.root = root
		}
		dir, ok = DirForImport(l.root, path), true
	}
	if !ok {
		return l.std.Import(path)
	}
	pkg, err := l.LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// LoadDir parses the non-test Go files of one directory as the package
// importPath and type-checks them, once per import path. Test files
// are excluded: the lint suite guards the production boundaries, and
// test-only dependencies would drag external test packages into the
// type-check.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	l.dirs[importPath] = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	pkg := &Package{
		Path: importPath, Dir: dir,
		Fset: l.Fset, Files: files, Types: tpkg, Info: info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// ListPackages enumerates the module's package directories under root,
// returning import paths sorted. Directories named testdata (and
// anything beneath them), hidden directories, and directories without
// non-test Go files are skipped.
func ListPackages(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				if rel == "." {
					out = append(out, ModulePath)
				} else {
					out = append(out, ModulePath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// DirForImport maps an in-module import path to its directory.
func DirForImport(root, importPath string) string {
	if importPath == ModulePath {
		return root
	}
	return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(importPath, ModulePath+"/")))
}
