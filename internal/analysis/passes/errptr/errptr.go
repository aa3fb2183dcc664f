// Package errptr implements the kerncheck analyzer for the paper's
// §4.2 type-confusion hazard: Linux's ERR_PTR convention encodes an
// errno inside a pointer value, so every caller must remember the
// IsErr dance before dereferencing. The repo keeps kbase.ErrPtr and
// IsErr alive for the legacy half of the tree; this analyzer flags
// every use outside kbase itself so the convention cannot spread in
// place of typedapi.Result[T].
package errptr

import (
	"go/ast"
	"go/types"

	"safelinux/internal/analysis"
)

// errPtrPkg is the package that owns the legacy encoding (uses inside
// it are the implementation, not the disease).
const errPtrPkg = analysis.ModulePath + "/internal/linuxlike/kbase"

// errPtrFuncs are the ERR_PTR-convention entry points.
var errPtrFuncs = map[string]bool{
	"ErrPtr": true,
	"IsErr":  true,
}

// Analyzer flags ERR_PTR-style error encoding outside kbase.
var Analyzer = &analysis.Analyzer{
	Name: "errptr",
	Doc: "flags kbase.ErrPtr/IsErr call sites: error-in-pointer " +
		"encoding is the §4.2 type-confusion hazard; return typedapi.Result[T] " +
		"(or a plain (T, Errno) pair) instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.PkgPath == errPtrPkg {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call.Fun)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == errPtrPkg && errPtrFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "errptr-call",
					"kbase.%s encodes an error inside a pointer (ERR_PTR convention); "+
						"use typedapi.Result[T] so the type system carries the error", fn.Name())
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called function object, unwrapping generic
// instantiations (kbase.ErrPtr[vfs.Inode]) and parenthesization.
func calleeFunc(pass *analysis.Pass, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.ParenExpr:
		return calleeFunc(pass, f.X)
	case *ast.IndexExpr:
		return calleeFunc(pass, f.X)
	case *ast.IndexListExpr:
		return calleeFunc(pass, f.X)
	case *ast.Ident:
		fn, _ := pass.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
