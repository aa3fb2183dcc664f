// Package compartguard enforces the compartment discipline with two
// rules. First, legacy packages (everything under internal/linuxlike)
// must not import internal/safety/compartment: the containment plane
// reaches them only through the concrete gate type of the trusted core
// (internal/safety/gate), so the kernel never links legacy code
// against the safety layer's policy. Second, in a package that crosses
// a gate, the unexported operation implementations that gate functions
// route through it (the doX convention) must stay reachable only
// through the gates: an exported function that calls one directly —
// or through an unexported wrapper — is a gate bypass, an entry point
// a compartment restart cannot contain.
//
// Gate detection is by type: a gate is any function whose body calls a
// method of gate.Gate, directly or promoted through an embedding type
// (vfs.guard, bufcache.guardBuf, an inline g.Run). Guarded internals
// are the static callees of function literals passed to gate calls or
// to gate methods; guardedness propagates through unexported wrappers
// that call a guarded function outside such a literal.
package compartguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"safelinux/internal/analysis"
)

const (
	compartmentPkg = analysis.ModulePath + "/internal/safety/compartment"
	gatePkg        = analysis.ModulePath + "/internal/safety/gate"
	legacyPrefix   = analysis.ModulePath + "/internal/linuxlike/"
)

// Analyzer enforces compartment-boundary discipline.
var Analyzer = &analysis.Analyzer{
	Name: "compartguard",
	Doc: "legacy (internal/linuxlike) packages must not import the compartment " +
		"package, and every exported entry point of a compartmentalized package " +
		"must route through its gate — no gate-bypassing paths to the " +
		"guarded doX internals",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkImports(pass)
	checkDiscipline(pass)
	return nil
}

// checkImports flags the forbidden compartment import in legacy
// packages.
func checkImports(pass *analysis.Pass) {
	if !strings.HasPrefix(pass.PkgPath, legacyPrefix) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == compartmentPkg {
				pass.Reportf(imp.Pos(), "compartguard",
					"legacy package %s imports %s: containment must reach legacy "+
						"code only through the concrete gate type of %s",
					pass.PkgPath, compartmentPkg, gatePkg)
			}
		}
	}
}

func checkDiscipline(pass *analysis.Pass) {
	// Collect declared functions.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	// Pass 1: gates — functions that call a gate method.
	gates := map[*types.Func]bool{}
	for fn, fd := range decls {
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isGateMethodCall(pass, call) {
				found = true
			}
			return !found
		})
		if found {
			gates[fn] = true
		}
	}

	// Pass 2: guarded internals — unexported static callees of
	// function literals passed to gate calls or gate methods.
	guarded := map[*types.Func]bool{}
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isGateCall(pass, gates, call) {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if inner, ok := m.(*ast.CallExpr); ok {
						if callee := staticCallee(pass, inner); callee != nil &&
							callee.Pkg() == pass.Pkg && !callee.Exported() {
							if _, declared := decls[callee]; declared {
								guarded[callee] = true
							}
						}
					}
					return true
				})
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return
	}

	// Outside calls: per function, the static in-package calls made
	// outside sanctioned literals (a literal argument of a gate call).
	type callSite struct {
		callee *types.Func
		pos    token.Pos
	}
	outside := map[*types.Func][]callSite{}
	for fn, fd := range decls {
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isGateCall(pass, gates, call) {
					// Literal arguments are the sanctioned route;
					// everything else in the call still walks.
					walk(call.Fun)
					for _, arg := range call.Args {
						if _, ok := arg.(*ast.FuncLit); !ok {
							walk(arg)
						}
					}
					return false
				}
				if callee := staticCallee(pass, call); callee != nil && callee.Pkg() == pass.Pkg {
					outside[fn] = append(outside[fn], callSite{callee, call.Pos()})
				}
				return true
			})
		}
		walk(fd.Body)
	}

	// Infectious closure: an unexported non-gate function calling a
	// guarded internal outside a sanctioned literal becomes guarded
	// itself.
	for changed := true; changed; {
		changed = false
		for fn := range decls {
			if gates[fn] || guarded[fn] || isExportedSurface(fn) {
				continue
			}
			for _, cs := range outside[fn] {
				if guarded[cs.callee] {
					guarded[fn] = true
					changed = true
					break
				}
			}
		}
	}

	// Violations: exported non-gate surface reaching a guarded
	// internal outside the gates.
	for fn := range decls {
		if gates[fn] || !isExportedSurface(fn) {
			continue
		}
		for _, cs := range outside[fn] {
			if guarded[cs.callee] {
				pass.Reportf(cs.pos, "compartguard",
					"exported %s bypasses the compartment boundary: %s is only "+
						"reachable through a gate",
					fn.Name(), cs.callee.Name())
			}
		}
	}
}

// isExportedSurface reports whether fn is callable from outside the
// package: exported name, and for methods an exported receiver type.
func isExportedSurface(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return true
	}
	recv := sig.Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return true
}

// isGateMethodCall reports whether call invokes a method of the
// concrete gate type, directly or promoted through an embedding type
// (a *compartment.Compartment's Do is gate.Gate's Do).
func isGateMethodCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Gate" && obj.Pkg() != nil && obj.Pkg().Path() == gatePkg
}

// isGateCall reports whether call targets a gate function or a gate
// method.
func isGateCall(pass *analysis.Pass, gates map[*types.Func]bool, call *ast.CallExpr) bool {
	if isGateMethodCall(pass, call) {
		return true
	}
	callee := staticCallee(pass, call)
	return callee != nil && gates[callee]
}

// staticCallee resolves call to a statically known function, or nil.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal && !types.IsInterface(sel.Recv()) {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil
		}
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
