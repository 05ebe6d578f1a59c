package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathConfig names the hot-path roots and the seams where reachability
// stops. Function IDs are "pkgpath.Func" or "pkgpath.Recv.Method" (pointer
// receivers stripped).
type HotPathConfig struct {
	// Roots are the entry points of hot regions. Everything statically
	// reachable from a root (direct calls and concrete method calls; calls
	// through function values and interfaces are invisible, which is what
	// makes seams like runner.Runner cheap escape hatches) inherits the
	// root's purity class.
	Roots []HotRoot
	// Stops are treated as opaque: not descended into and not checked.
	// They mark deliberate tier boundaries — e.g. the durable store's Get
	// is disk-side, not part of the RAM hit path.
	Stops []string
}

// HotRoot is one hot-path entry point. NoLock additionally bans mutex
// acquisition (the simulator inner loops are single-goroutine by design;
// the serve hit path batches exactly one lock, so it opts out).
type HotRoot struct {
	Name   string
	NoLock bool
}

// bannedCalls maps callee IDs to the invariant they break on a hot path.
var bannedCalls = map[string]string{
	"time.Now":   "clock read",
	"time.Since": "clock read",
	"time.After": "clock read (and timer allocation)",
	"time.Tick":  "clock read (and leaked ticker)",

	"fmt.Sprintf":  "string formatting",
	"fmt.Sprint":   "string formatting",
	"fmt.Sprintln": "string formatting",
	"fmt.Errorf":   "error formatting",
	"fmt.Fprintf":  "formatted I/O",
	"fmt.Fprint":   "formatted I/O",
	"fmt.Fprintln": "formatted I/O",
	"fmt.Printf":   "formatted I/O",
	"fmt.Println":  "formatted I/O",
}

var lockCalls = map[string]bool{
	"sync.Mutex.Lock":    true,
	"sync.RWMutex.Lock":  true,
	"sync.RWMutex.RLock": true,
}

// hotViolation is one banned call recorded during Collect, adjudicated in
// Finish once reachability is known.
type hotViolation struct {
	pos    token.Pos
	fset   int // index into pkgs, to recover the right Pass for reporting
	callee string
	kind   string
	isLock bool
}

// HotPath reports impurities in functions reachable from the configured hot
// roots: clock reads, string/error formatting, anything in encoding/json,
// and (for NoLock roots) mutex acquisition. The simulator inner loops and
// the cache-hit serve path are the money paths — at 498M instr/s and 490k
// cand/s respectively, one stray time.Now or Sprintf per candidate is a
// measurable regression, and runtime benchmarks only catch it after the
// fact.
func HotPath(cfg HotPathConfig) *Analyzer {
	stops := map[string]bool{}
	for _, s := range cfg.Stops {
		stops[s] = true
	}

	edges := map[string][]string{}       // funcID -> static callees
	viols := map[string][]hotViolation{} // funcID -> banned calls inside it
	passes := map[string]*Pass{}         // funcID -> pass that owns it (for reporting)
	defPos := map[string]token.Pos{}     // funcID -> decl position

	a := &Analyzer{
		Name: "hotpath",
		Doc:  "hot-path functions must not read the clock, format, touch json, or lock",
	}
	a.Collect = func(p *Pass) {
		info := p.Pkg.Info
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := declFuncID(p, fd)
				if id == "" {
					continue
				}
				if _, seen := defPos[id]; seen {
					continue // augmented + xtest flavors can both see a decl
				}
				defPos[id] = fd.Pos()
				passes[id] = p
				inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, callee := calleeOf(info, call)
					if fn == nil {
						return true
					}
					edges[id] = append(edges[id], callee)
					kind, banned := bannedCalls[callee]
					if !banned && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
						kind, banned = "JSON encode/decode", true
					}
					isLock := lockCalls[callee]
					if !banned && !isLock {
						return true
					}
					if underPanic(stack) {
						// panic(fmt.Sprintf(...)) is a terminal path: the
						// formatting happens once, right before the process
						// (or test) dies — not per-instruction.
						return true
					}
					viols[id] = append(viols[id], hotViolation{
						pos: call.Pos(), callee: callee, kind: kind, isLock: isLock,
					})
					return true
				})
			}
		}
	}
	a.Finish = func(p *Pass) {
		for _, root := range cfg.Roots {
			// BFS from the root, keeping one shortest call chain for the
			// diagnostic.
			parent := map[string]string{root.Name: ""}
			queue := []string{root.Name}
			for len(queue) > 0 {
				id := queue[0]
				queue = queue[1:]
				for _, v := range viols[id] {
					if v.isLock && !root.NoLock {
						continue
					}
					kind := v.kind
					if v.isLock {
						kind = "lock acquisition"
					}
					op := passes[id]
					op.report(Diagnostic{
						Pos: op.Pkg.Fset.Position(v.pos),
						Message: v.callee + ": " + kind + " on the hot path (reachable from " +
							root.Name + chainSuffix(parent, id) + ")",
					})
				}
				for _, callee := range edges[id] {
					if stops[callee] {
						continue
					}
					if _, seen := parent[callee]; seen {
						continue
					}
					if _, inModule := edges[callee]; !inModule && len(viols[callee]) == 0 {
						continue // opaque: stdlib or undeclared
					}
					parent[callee] = id
					queue = append(queue, callee)
				}
			}
		}
	}
	return a
}

// declFuncID is funcID for a declaration site.
func declFuncID(p *Pass, fd *ast.FuncDecl) string {
	if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return funcID(fn)
	}
	return ""
}

// underPanic reports whether the node stack passes through the argument
// list of a builtin panic call.
func underPanic(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}

// chainSuffix renders " via a -> b" for the BFS parent chain ending at id
// (empty when id is the root itself).
func chainSuffix(parent map[string]string, id string) string {
	var hops []string
	for cur := id; parent[cur] != ""; cur = parent[cur] {
		hops = append(hops, shortFuncID(cur))
	}
	if len(hops) == 0 {
		return ""
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return " via " + strings.Join(hops, " -> ")
}

// shortFuncID trims the package path to its last element.
func shortFuncID(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}
