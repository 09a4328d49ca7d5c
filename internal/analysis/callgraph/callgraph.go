// Package callgraph builds a lightweight interprocedural call graph
// over the packages the rsvet loader type-checked, so analyzers can
// follow a call from engine.Core into internal/storage or a user
// workload without golang.org/x/tools/go/ssa.
//
// Nodes are declared functions and function literals of the loaded
// (source-checked) packages; edges are statically resolvable calls:
// direct calls of package functions, method calls resolved through the
// static receiver type, and nested function literals (a literal counts
// as part of its enclosing function's synchronous behavior, whether
// invoked, deferred, or handed onward — conservative in the flagging
// direction). Calls through interface values, function-typed
// variables and fields stay unresolved — the graph records the callee
// identity (for interface methods) but has no body to follow. Calls in
// `go` statements are deliberately not edges: the spawned goroutine's
// behavior is not part of the caller's synchronous contract, which is
// what the contract analyzers (detlint, hookshape) reason
// about.
//
// Identity is name-based, not object-based: the loader type-checks
// each target package against the *export data* of its dependencies,
// so the *types.Func for storage.Store.Write seen from internal/txn is
// a different object than the one minted when internal/storage itself
// is checked from source. A FuncID ("pkg/path.(*Recv).Name") is stable
// across that split and lets an edge resolved from export data land on
// the node built from source.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"relser/internal/analysis/load"
)

// FuncID names a function uniquely across the loaded program:
// "pkg/path.Name" for package functions, "pkg/path.(Recv).Name" or
// "pkg/path.(*Recv).Name" for methods, and "parentID$n" for the n-th
// function literal inside parent.
type FuncID string

// Node is one function with a known body.
type Node struct {
	ID  FuncID
	Pkg *load.Package
	// Decl is the declaration; nil for function literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Body is the function body (never nil for a node).
	Body *ast.BlockStmt
	// Calls are the statically resolved call sites, in source order.
	Calls []Edge
}

// Name returns the declared name, or the parent-qualified literal tag.
func (n *Node) Name() string {
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return string(n.ID[strings.LastIndexByte(string(n.ID), '.')+1:])
}

// Doc returns the declaration's doc comment (nil for literals).
func (n *Node) Doc() *ast.CommentGroup {
	if n.Decl != nil {
		return n.Decl.Doc
	}
	return nil
}

// Edge is one resolved call site.
type Edge struct {
	// Callee is the target's identity. The graph may or may not hold a
	// node for it: std-lib and export-data callees have no body here.
	Callee FuncID
	// Pos is the call position in the caller.
	Pos token.Pos
	// Call is the call expression.
	Call *ast.CallExpr
}

// Graph is the program-wide call graph plus a memo table analyzers use
// to share derived facts across per-package passes.
type Graph struct {
	// Nodes maps every function with a loaded body.
	Nodes map[FuncID]*Node

	mu      sync.Mutex
	memo    map[string]any
	callers map[FuncID][]FuncID
}

// Build constructs the graph over the loaded packages.
func Build(pkgs []*load.Package) *Graph {
	g := &Graph{Nodes: make(map[FuncID]*Node), memo: make(map[string]any)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{ID: IDOf(obj), Pkg: pkg, Decl: fn, Body: fn.Body}
				g.Nodes[n.ID] = n
				g.scan(n)
			}
		}
	}
	return g
}

// scan walks one function body, recording resolved call edges and
// materializing nodes for nested function literals.
func (g *Graph) scan(n *Node) {
	lits := 0
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			lits++
			child := &Node{
				ID: FuncID(fmt.Sprintf("%s$%d", n.ID, lits)), Pkg: n.Pkg,
				Lit: e, Body: e.Body,
			}
			g.Nodes[child.ID] = child
			g.scan(child)
			// A literal defined here is treated as part of the enclosing
			// function's synchronous behavior (invoked, deferred, or
			// handed to a callee that invokes it) — conservative in the
			// flagging direction for the contract analyzers.
			n.Calls = append(n.Calls, Edge{Callee: child.ID, Pos: e.Pos()})
			return false // the child scanned its own body
		case *ast.GoStmt:
			// Not a synchronous edge; still scan nested literals so they
			// exist as nodes (hook analyzers may be handed one).
			ast.Inspect(e.Call, func(inner ast.Node) bool {
				if lit, ok := inner.(*ast.FuncLit); ok {
					lits++
					child := &Node{
						ID: FuncID(fmt.Sprintf("%s$%d", n.ID, lits)), Pkg: n.Pkg,
						Lit: lit, Body: lit.Body,
					}
					g.Nodes[child.ID] = child
					g.scan(child)
					return false
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if id, ok := g.calleeID(n.Pkg, e); ok {
				n.Calls = append(n.Calls, Edge{Callee: id, Pos: e.Pos(), Call: e})
			}
			return true
		}
		return true
	}
	ast.Inspect(n.Body, walk)
}

// calleeID resolves a call expression to a callee identity. Type
// conversions and builtin calls resolve to nothing.
func (g *Graph) calleeID(pkg *load.Package, call *ast.CallExpr) (FuncID, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[fun].(*types.Func); ok {
			return IDOf(fn), true
		}
		if _, ok := pkg.TypesInfo.Defs[fun].(*types.Func); ok {
			return IDOf(pkg.TypesInfo.Defs[fun].(*types.Func)), true
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return IDOf(fn), true
		}
	case *ast.FuncLit:
		// Immediately invoked literal: the literal node was (or will
		// be) materialized by scan; the edge would need its ID, which
		// depends on visit order. The literal's body is scanned either
		// way, so facts computed per-node still see it; skip the edge.
	}
	return "", false
}

// CalleeOf resolves a call expression appearing in pkg to its callee
// identity, when statically resolvable — the same resolution edges are
// built from, for analyzers that need per-call-site classification.
func (g *Graph) CalleeOf(pkg *load.Package, call *ast.CallExpr) (FuncID, bool) {
	return g.calleeID(pkg, call)
}

// IDOf computes the stable name-based identity of a function object.
func IDOf(fn *types.Func) FuncID {
	if fn.Pkg() == nil {
		return FuncID("builtin." + fn.Name())
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		name := t.String()
		if named, isNamed := t.(*types.Named); isNamed {
			name = named.Obj().Name()
		}
		return FuncID(fn.Pkg().Path() + ".(" + ptr + name + ")." + fn.Name())
	}
	return FuncID(fn.Pkg().Path() + "." + fn.Name())
}

// LitNode returns the node materialized for a function literal.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node {
	for _, n := range g.Nodes {
		if n.Lit == lit {
			return n
		}
	}
	return nil
}

// Callers returns the IDs of nodes with an edge to id, sorted.
func (g *Graph) Callers(id FuncID) []FuncID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.callers == nil {
		g.callers = make(map[FuncID][]FuncID)
		for _, n := range g.Nodes {
			seen := make(map[FuncID]bool)
			for _, e := range n.Calls {
				if !seen[e.Callee] {
					seen[e.Callee] = true
					g.callers[e.Callee] = append(g.callers[e.Callee], n.ID)
				}
			}
		}
		for _, ids := range g.callers {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
	}
	return g.callers[id]
}

// Memo returns the cached value for key, computing and caching it on
// first use. Analyzers run once per package but derive program-wide
// facts; Memo keeps that derivation to one pass per graph.
func Memo[T any](g *Graph, key string, compute func() T) T {
	// The lock is not held across compute: derivations call back into
	// Callers (which locks g.mu) and the checker runs passes serially,
	// so a racing double-compute is not a concern.
	g.mu.Lock()
	v, ok := g.memo[key]
	g.mu.Unlock()
	if ok {
		return v.(T)
	}
	computed := compute()
	g.mu.Lock()
	g.memo[key] = computed
	g.mu.Unlock()
	return computed
}

// Transitive computes the set of nodes that either satisfy direct
// themselves or have a call path to a node that does: the bottom-up
// fact propagation every contract analyzer shares. Unresolved callees
// (no node) contribute only through direct, which receives every node
// and may inspect its edges for bodyless callees.
func (g *Graph) Transitive(direct func(*Node) bool) map[FuncID]bool {
	out := make(map[FuncID]bool)
	var work []FuncID
	for id, n := range g.Nodes {
		if direct(n) {
			out[id] = true
			work = append(work, id)
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range g.Callers(id) {
			if !out[caller] {
				out[caller] = true
				work = append(work, caller)
			}
		}
	}
	return out
}

// Chain holds a shortest call path root → … → target, as IDs.
type Chain []FuncID

// String renders "a → b → c".
func (c Chain) String() string {
	parts := make([]string, len(c))
	for i, id := range c {
		parts[i] = shortName(id)
	}
	return strings.Join(parts, " → ")
}

func shortName(id FuncID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// ReachableFrom walks edges forward from the root set and returns, for
// every reached node, the shortest chain from a root (roots map to a
// one-element chain). Roots are visited in sorted order so chains are
// deterministic.
func (g *Graph) ReachableFrom(roots map[FuncID]bool) map[FuncID]Chain {
	out := make(map[FuncID]Chain)
	var queue []FuncID
	ids := make([]FuncID, 0, len(roots))
	for id := range roots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if g.Nodes[id] == nil {
			continue
		}
		out[id] = Chain{id}
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := g.Nodes[id]
		if n == nil {
			continue
		}
		for _, e := range n.Calls {
			if _, seen := out[e.Callee]; seen || g.Nodes[e.Callee] == nil {
				continue
			}
			out[e.Callee] = append(append(Chain{}, out[id]...), e.Callee)
			queue = append(queue, e.Callee)
		}
	}
	return out
}
