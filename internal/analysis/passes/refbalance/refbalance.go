// Package refbalance implements the kerncheck analyzer for BufferHead
// reference counting — the "over-release still oopses at runtime"
// path of the paper's §4.4. Per function and per variable it matches
// acquisitions (Cache.GetBlk / Bread)
// against releases (BufferHead.Put, plain or deferred) and reports:
//
//   - leak: a buffer acquired into a variable that is never released
//     and never escapes the function;
//   - over-release: a variable that is both deferred-Put and
//     plainly-Put, or plainly Put twice on one control-flow path.
//
// Ownership transfer is respected: a variable that escapes — returned,
// passed as a call argument, stored into a field or another variable,
// placed in a composite literal — is exempt from balance checking, as
// is any variable the function re-acquires into (the count is then
// data-dependent and only the runtime check can see it).
// Conservatism is deliberate: this pass gates CI, so a
// missed leak is better than a false alarm.
package refbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"safelinux/internal/analysis"
)

// Analyzer checks per-function Get/Put balance for BufferHead refcounts.
var Analyzer = &analysis.Analyzer{
	Name: "refbalance",
	Doc: "per-function, per-variable Get/Put balance checking for BufferHead " +
		"refcounts: reports buffers acquired but never released (leak) and " +
		"double releases on one path (over-release)",
	Run: run,
}

const bufcachePkg = analysis.ModulePath + "/internal/linuxlike/bufcache"

// acquireFuncs are the bufcache entry points that hand the caller a
// new reference.
var acquireFuncs = map[string]bool{
	"GetBlk": true, "Bread": true, "BreadCtx": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// varFacts accumulates what one function does with one buffer var.
type varFacts struct {
	acquires  []token.Pos
	plainPuts []token.Pos
	deferPuts int
	escaped   bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	facts := make(map[types.Object]*varFacts)

	// Pass 1: find acquisitions `v := cache.Bread(b)` / `v, err := ...`.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !isAcquireCall(pass, call) {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := identObj(pass, id)
		if obj == nil {
			return true
		}
		f := facts[obj]
		if f == nil {
			f = &varFacts{}
			facts[obj] = f
		}
		f.acquires = append(f.acquires, assign.Pos())
		return true
	})
	if len(facts) == 0 {
		return
	}

	// Pass 2: classify every other use of the tracked variables.
	classifyUses(pass, fd, facts)

	// Pass 3: judge.
	for obj, f := range facts {
		if f.escaped || len(f.acquires) > 1 {
			continue // ownership transferred or count data-dependent
		}
		if len(f.plainPuts) == 0 && f.deferPuts == 0 {
			pass.Reportf(f.acquires[0], "leak",
				"buffer %s is acquired here but never released (no Put on any path) "+
					"and does not escape %s", obj.Name(), fd.Name.Name)
			continue
		}
		if f.deferPuts > 0 && len(f.plainPuts) > 0 {
			pass.Reportf(f.plainPuts[0], "over-release",
				"buffer %s has both a deferred Put and a plain Put in %s: the deferred "+
					"release still runs, dropping the refcount twice", obj.Name(), fd.Name.Name)
			continue
		}
		checkSequentialPuts(pass, fd, obj, f)
	}
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// isAcquireCall reports calls of bufcache.Cache.GetBlk/Bread.
func isAcquireCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == bufcachePkg && acquireFuncs[fn.Name()]
}

// bufferMethod resolves call to a BufferHead method name ("Put", ...)
// with the receiver identifier, or ok=false.
func bufferMethod(pass *analysis.Pass, call *ast.CallExpr) (recv *ast.Ident, name string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return nil, "", false
	}
	id, idOK := sel.X.(*ast.Ident)
	if !idOK {
		return nil, "", false
	}
	fn, fnOK := pass.Info.Uses[sel.Sel].(*types.Func)
	if !fnOK || fn.Pkg() == nil || fn.Pkg().Path() != bufcachePkg {
		return nil, "", false
	}
	return id, fn.Name(), true
}

// classifyUses walks the body with a parent stack, recording Put
// calls and escape-shaped uses of each tracked variable.
func classifyUses(pass *analysis.Pass, fd *ast.FuncDecl, facts map[types.Object]*varFacts) {
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)

		if call, ok := n.(*ast.CallExpr); ok {
			if recv, name, ok := bufferMethod(pass, call); ok {
				if f := facts[identObj(pass, recv)]; f != nil && name == "Put" {
					if insideDefer(stack) {
						f.deferPuts++
					} else {
						f.plainPuts = append(f.plainPuts, call.Pos())
					}
				}
			}
		}

		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		f := facts[identObj(pass, id)]
		if f == nil {
			return true
		}
		if isEscapeUse(stack, id) {
			f.escaped = true
		}
		return true
	})
}

func insideDefer(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// isEscapeUse decides, from the identifier's immediate parent, whether
// this use transfers or aliases ownership. Selector uses (method
// calls, field reads) and nil comparisons are local; argument
// positions, returns, stores, and composite literals escape. Unknown
// contexts count as escapes — when unsure, hand the var to the
// runtime checker rather than report statically.
func isEscapeUse(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return false // x.f: local use (field read or method call receiver)
	case *ast.BinaryExpr:
		return false // comparisons (bh == nil)
	case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt:
		return false // condition position
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(id) {
				return false // (re)definition handled via acquires
			}
		}
		return true // RHS: aliased into another variable
	case *ast.ValueSpec:
		for _, name := range p.Names {
			if name == id {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(id) {
				return true // passed along: ownership transfer
			}
		}
		return false
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr,
		*ast.SendStmt, *ast.UnaryExpr, *ast.IndexExpr:
		return true
	}
	return true
}

// checkSequentialPuts reports two plain Puts of obj in one statement
// list with no intervening control-flow exit: both run on the same
// path, releasing twice. Every block in the function is scanned
// independently, so branch-local double Puts are caught while
// "Put-and-return in the error branch, Put on the main path" stays
// clean.
func checkSequentialPuts(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, f *varFacts) {
	if len(f.plainPuts) < 2 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		pending := false
		for _, stmt := range block.List {
			hasPut, putPos := stmtHasPut(pass, stmt, obj)
			exits := stmtExits(pass, stmt, obj)
			if hasPut && pending {
				pass.Reportf(putPos, "over-release",
					"buffer %s is released twice on this path in %s (previous Put above "+
						"with no intervening return or re-acquire)", obj.Name(), fd.Name.Name)
				return false
			}
			if hasPut {
				pending = !exits
			} else if exits {
				pending = false
			}
		}
		return true
	})
}

// stmtHasPut reports whether stmt's subtree contains a plain Put of obj.
func stmtHasPut(pass *analysis.Pass, stmt ast.Stmt, obj types.Object) (bool, token.Pos) {
	found := false
	var pos token.Pos
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, ok := bufferMethod(pass, call); ok && name == "Put" &&
			identObj(pass, recv) == obj && !found {
			found, pos = true, call.Pos()
		}
		return true
	})
	return found, pos
}

// stmtExits reports whether stmt's subtree leaves the current path or
// resets obj's count: a return/branch statement, a re-acquire
// assignment.
func stmtExits(pass *analysis.Pass, stmt ast.Stmt, obj types.Object) bool {
	exits := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			exits = true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && identObj(pass, id) == obj {
					exits = true
				}
			}
		}
		return !exits
	})
	return exits
}
