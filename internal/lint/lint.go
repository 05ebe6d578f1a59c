// Package lint is simtunelint: a suite of project-specific static
// analyzers that enforce the concurrency and hot-path invariants this
// codebase has accumulated PR by PR — invariants that runtime tests only
// catch when they happen to exercise the buggy interleaving.
//
// The suite loads the whole module (every package, test files included)
// via `go list` + go/parser + go/types — deliberately self-contained, no
// golang.org/x/tools dependency — and runs five analyzers:
//
//   - atomicmix: a variable accessed through sync/atomic anywhere must
//     never be read or written plainly elsewhere (the statusz counter
//     ledgers are the motivating corpus).
//   - hotpath: functions reachable from the simulator inner loops and the
//     cache-hit serve path must not read the clock, format strings,
//     touch encoding/json, or (on the simulator side) take a lock. A clock
//     read is a finding even behind a nil check on some handle: a hot path
//     has one shape, and timing belongs outside its root.
//   - errtaxonomy: retryability and classification checks on errors must
//     use errors.Is/errors.As, never type assertions; wire packages must
//     route error responses through the typed writeError path.
//   - sleepseam: direct time.Sleep is banned in internal/service — the
//     injectable sleep seam (ServiceRunner.sleep) exists so pacing is
//     testable without wall-clock waits.
//   - lockorder: inflight.Add must happen under drainMu (the drain-gate
//     ordering), and no mutex may be held across a blocking call
//     (HTTP round-trip, fsync, sleep).
//
// Each analyzer ships a want-diagnostics corpus under testdata/, and the
// suite runs clean over the current tree: `go run ./cmd/simtunelint ./...`
// exits 0, and CI fails on any new diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package ready for analysis. Test files of
// the package (both in-package _test.go files and the external _test
// package) are loaded as their own Package values so analyzers see the
// whole tree the race detector sees.
type Package struct {
	// Path is the import path; external test packages carry the
	// "<path>_test" suffix go list reports.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestFile reports, per file, whether it came from TestGoFiles or
	// XTestGoFiles (analyzers that exempt tests consult this).
	TestFile map[*ast.File]bool
}

// Pass is the per-package view handed to an analyzer phase.
type Pass struct {
	Pkg *Package
	// All is every package in the run, for analyzers that need the global
	// picture during Finish.
	All    []*Package
	report func(d Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker. Collect (optional) runs over every
// package before any Run, so cross-package facts (which fields are atomic,
// the call graph) are complete before reporting starts. Run reports
// per-package findings. Finish (optional) runs once at the end for
// analyzers whose findings are only decidable globally.
type Analyzer struct {
	Name    string
	Doc     string
	Collect func(p *Pass)
	Run     func(p *Pass)
	Finish  func(p *Pass)
}

// Run executes the suite over pkgs and returns every diagnostic, sorted by
// file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a := a
		sink := func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		if a.Collect != nil {
			for _, pkg := range pkgs {
				a.Collect(&Pass{Pkg: pkg, All: pkgs, report: sink})
			}
		}
		if a.Run != nil {
			for _, pkg := range pkgs {
				a.Run(&Pass{Pkg: pkg, All: pkgs, report: sink})
			}
		}
		if a.Finish != nil && len(pkgs) > 0 {
			a.Finish(&Pass{Pkg: pkgs[0], All: pkgs, report: sink})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// funcID names a function or method in the stable form analyzers use for
// configuration: "pkgpath.Func" or "pkgpath.Recv.Method" (pointer receivers
// stripped, so *Hierarchy and Hierarchy methods share an ID). Interface
// methods resolve to "pkgpath.Iface.Method". Universe names (error.Error)
// come back bare.
func funcID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed {
			obj := n.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
			}
			return obj.Name() + "." + fn.Name()
		}
		// Unnamed receiver (embedded interface literal): fall through to
		// the package-qualified form.
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// calleeOf resolves the static callee of a call expression: direct calls to
// package functions, method calls on concrete or interface receivers, and
// qualified calls through package selectors. Calls through function values
// or unresolvable expressions return "".
func calleeOf(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, funcID(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn, funcID(fn)
		}
	}
	return nil, ""
}

// unparen strips any parenthesis wrapping from e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// enclosingFunc walks the per-file path stack maintained by inspectWithStack
// and returns the innermost FuncDecl, or nil inside func literals at file
// scope (init expressions).
func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// inspectWithStack is ast.Inspect with the ancestor stack (outermost first,
// not including n itself) passed to f. Return false to prune.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := f(n, stack)
		stack = append(stack, n)
		if !ok {
			// Still pushed; pop happens on the nil visit only if we
			// descend, so pop immediately when pruning.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}
