// Package droppederr flags discarded error and errno returns at
// exported boundaries: an expression statement that calls an exported
// function whose results include a kbase.Errno or an error and throws
// the whole tuple away. In kernel code a swallowed errno is a
// corruption bug waiting for fsck — the write that "worked", the
// commit that silently hit ENOSPC. The explicit, auditable opt-out is
// `_ = f()`; defer and go statements are exempt (deferred cleanup and
// detached goroutines have no frame to return into).
//
// Only exported callees are checked: the exported surface is where a
// contract crosses a package (or API) boundary, while an unexported
// helper discarding its own package's status is local style
// kerncheck does not police. The callee must also belong to this module
// (or the package under analysis): a discarded fmt.Println error is
// universal Go practice, not a kernel contract, and policing the
// standard library would bury the real errno drops in noise.
package droppederr

import (
	"go/ast"
	"go/types"
	"strings"

	"safelinux/internal/analysis"
	"safelinux/internal/analysis/flow"
)

const errnoType = analysis.ModulePath + "/internal/linuxlike/kbase.Errno"

// Analyzer flags silently discarded error/errno results.
var Analyzer = &analysis.Analyzer{
	Name: "droppederr",
	Doc: "flags expression statements that discard an exported callee's " +
		"error or kbase.Errno result; handle it or assign to _ to record " +
		"the decision",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			check(pass, call)
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, call *ast.CallExpr) {
	callee, _ := flow.ResolveCall(pass.Info, call)
	if callee == nil || !callee.Exported() {
		return
	}
	if !moduleCallee(pass, callee) {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if kind := errKind(results.At(i).Type()); kind != "" {
			pass.Reportf(call.Pos(), "droppederr",
				"result of %s contains a %s that is silently discarded; handle it or assign to _",
				callee.Name(), kind)
			return
		}
	}
}

// moduleCallee reports whether fn is defined in this module or in the
// package under analysis (the latter keeps self-contained testdata
// packages checkable). Standard-library callees are out of scope.
func moduleCallee(pass *analysis.Pass, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == pass.PkgPath ||
		path == analysis.ModulePath ||
		strings.HasPrefix(path, analysis.ModulePath+"/")
}

// errKind classifies t as "kbase.Errno", "error", or "" (neither).
func errKind(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		if named.Obj().Pkg().Path()+"."+named.Obj().Name() == errnoType {
			return "kbase.Errno"
		}
	}
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return "error"
	}
	return ""
}
