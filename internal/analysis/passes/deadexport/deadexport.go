// Package deadexport flags exported functions and methods that no
// production code uses: a declaration in a non-main package with no
// use in any non-test file of the program. Exported code that only
// tests call is a second surface to keep working — the legacy shims
// and test hooks that outlive the callers they were written for.
//
// The pass looks at the whole program. Its Prepare step collects every
// use recorded in every loaded package (the loader skips _test.go
// files, so each use is a production use), the interfaces the program
// can see, and the set of imported packages; narrowing a run to a few
// packages narrows only what is reported. The loader shares one
// types.Object per declaration across packages, so declarations and
// uses match by identity; a use through a generic instantiation maps
// to its Origin.
//
// Exemptions, each a use the syntax cannot show:
//   - a method through which its type satisfies any interface type
//     seen in the program — named, anonymous (a type assertion's
//     interface{ M() }), or declared by an imported standard-library
//     package (String, Error, MarshalJSON). Interface methods are
//     indexed by name and signature; the type must implement the
//     whole interface;
//   - everything in package main, whose exports nothing imports.
//
// A non-main package that nothing imports is reported once, at its
// package clause, instead of once per export. Fields, types, constants
// and variables are out of scope.
package deadexport

import (
	"go/ast"
	"go/types"
	"strings"

	"safelinux/internal/analysis"
)

// Analyzer flags exported functions and methods with no non-test use.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc: "flags exported functions and methods that no non-test code " +
		"uses, and packages that no non-test code imports",
	Prepare: prepare,
}

// program is the whole-program use set.
type program struct {
	used map[*types.Func]bool
	// ifaces indexes every interface seen by methodKey of each of its
	// methods.
	ifaces   map[string][]*types.Interface
	imported map[string]bool
}

func prepare(pkgs []*analysis.Package) (func(*analysis.Pass) error, error) {
	p := &program{
		used:     make(map[*types.Func]bool),
		ifaces:   make(map[string][]*types.Interface),
		imported: make(map[string]bool),
	}
	p.addInterface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				p.addInterface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			p.imported[imp.Path()] = true
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				p.used[fn.Origin()] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			p.addInterface(tv.Type)
		}
		visit(pkg.Types)
	}
	return p.check, nil
}

func (p *program) addInterface(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		k := methodKey(iface.Method(i))
		p.ifaces[k] = append(p.ifaces[k], iface)
	}
}

// satisfies reports whether recv, fn's receiver base type, or a
// pointer to it implements an interface that declares fn.
func (p *program) satisfies(fn *types.Func, recv types.Type) bool {
	for _, iface := range p.ifaces[methodKey(fn)] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// methodKey is a method's name and its parameter and result types,
// without receiver or parameter names.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString(" (")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func (p *program) check(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	if !p.imported[pass.PkgPath] {
		pass.Reportf(pass.Files[0].Name.Pos(), "unimported",
			"package %s has no non-test importer", pass.PkgPath)
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || p.used[fn] {
				continue
			}
			name := fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				base := recv.Type()
				if ptr, ok := base.(*types.Pointer); ok {
					base = ptr.Elem()
				}
				if p.satisfies(fn, base) {
					continue
				}
				name = base.(*types.Named).Obj().Name() + "." + name
			}
			pass.Reportf(fd.Name.Pos(), "unused", "exported %s has no non-test use", name)
		}
	}
	return nil
}
