// Package lint holds the soclint analyzers: repo-specific static checks
// that turn this repository's load-bearing conventions — byte-deterministic
// output layers, context.Context threading below the API boundary, and
// mutex-guarded shared state — into machine-checked rules enforced at
// `go vet -vettool=soclint` time (see cmd/soclint).
//
// Each analyzer reads an annotation or naming convention that already
// exists in the code base:
//
//   - detrange: golden-producing packages must not let map iteration order
//     reach an output/serialization path.
//   - ctxflow: context.Background()/TODO() is banned below the API
//     boundary; goroutine-spawning exported APIs must accept a Context.
//   - mutexguard: fields annotated "// guarded by <mu>" may only be
//     accessed with that mutex held.
//   - backendreg: sched.RegisterBackend only from init, with constant
//     names, and Backend.Schedule loops must be cancellable.
//   - detseed: no wall clock, global math/rand, or map-dependent unstable
//     sorts in deterministic packages.
//   - failpoint: chaos.Inject sites only in non-test files, with
//     compile-time constant site names.
//   - spanend: every obs.Start/StartTrace span must have a deferred End()
//     in the same function.
//
// A finding that is intentional is suppressed in place with
// "//soclint:allow <analyzer> <why>" on the same line or the line above;
// the justification is part of the convention.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzers returns the full soclint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRange,
		CtxFlow,
		MutexGuard,
		BackendReg,
		DetSeed,
		Failpoint,
		SpanEnd,
	}
}

// goldenPackages are the output layers replayed into golden files by the
// corpus harness; a map-iteration-ordered byte in any of them is golden
// drift waiting to happen.
var goldenPackages = map[string]bool{
	"schedio": true,
	"report":  true,
	"corpus":  true,
	"datavol": true,
	"service": true,
}

// ctxPackages are the layers below the public API boundary that must
// thread context.Context instead of minting fresh ones.
var ctxPackages = map[string]bool{
	"sched":   true,
	"datavol": true,
	"service": true,
}

// deterministicPackages must behave identically run to run: the synthetic
// corpus generator, the corpus scenarios, and the rectangle-packing
// backends, annealing search included (seeded generators only, per the
// detseed check).
var deterministicPackages = map[string]bool{
	"bench":    true,
	"corpus":   true,
	"rectpack": true,
}

// rootPackage is the module root ("api.go"'s package); ctxflow checks only
// api.go there, since the root also holds documentation files.
const rootPackage = "repro"

// pkgBase returns the final import-path element, with the " [pkg.test]"
// suffix of test variants stripped, so target matching works identically
// under go vet (which analyzes test variants too) and the fixture loader.
func pkgBase(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// pkgPath returns the package path with any test-variant suffix stripped.
func pkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// isMap reports whether the expression's type is (or points at) a map.
func isMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	_, ok = t.(*types.Map)
	return ok
}

// pkgFunc reports whether the call expression invokes a function of the
// named standard package (matched by import path), e.g. pkgFunc(info,
// call, "sort") for sort.Slice(...). It returns the selected name.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// ctxParam returns the function's context.Context parameter object, if any.
func ctxParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// usesObject reports whether the subtree references the object.
func usesObject(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// funcDecls yields every function declaration in the package with a body.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// fileOf returns the *ast.File containing pos.
func fileOf(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
