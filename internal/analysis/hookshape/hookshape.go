// Package hookshape checks the engine.Hooks contract (DESIGN.md §5.2):
// hooks run synchronously on the driver's execution path under
// whatever locks that path holds, so a hook that blocks stalls every
// worker behind it, and a hook that calls back into the engine or
// driver mutating APIs re-enters locks already held. The obs plane and
// the record tap both live behind hooks; this analyzer keeps them (and
// any future observer) within the contract the engine's prose states.
//
// Hook roots are gathered from every construction shape in the tree:
// engine.Hooks composite literal fields, assignments to Hooks fields
// (h.Commit = fn), and — because both obs and record wrap the previous
// hook with a combinator — function-valued arguments of any call
// assigned into a Hooks field.
//
// Three facts, each followed through calls:
//
//   - mayBlock: the function (or anything it calls) sleeps, sends or
//     receives on a channel, selects without a default, or waits on a
//     sync.Cond/sync.WaitGroup. Plain sync.Mutex Lock/Unlock is
//     deliberately allowed — the obs and record hooks serialize on
//     leaf mutexes that no engine path holds, which is the sanctioned
//     pattern for observer state.
//   - reenters: the function reaches an engine.Core mutating method, a
//     txn driver entry point, or a WAL sink append/sync — the APIs
//     that acquire engine or driver locks.
//   - keeps: the hook keeps its *engine.Instance, or one of that
//     instance's map or slice fields, past its return: it assigns it to
//     anything that is not local, appends it to a slice, sends it on a
//     channel or captures it in a go statement, itself or in a function
//     it passes the value to. The engine recycles a committed instance
//     for a later admission, so a kept one later shows another
//     instance's state; hooks copy the fields they need.
//
// Violations are reported at the site that installs the hook, naming
// the offending path, so the fix (move the work off the hook, or
// document an exception with //rsvet:allow hookshape) happens where
// the hook is wired up.
package hookshape

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"relser/internal/analysis"
	"relser/internal/analysis/callgraph"
)

// Analyzer is the hook-contract check.
var Analyzer = &analysis.Analyzer{
	Name: "hookshape",
	Doc:  "check that engine.Hooks observers neither block, call back into engine/driver mutating APIs, nor keep their instance",
	Run:  run,
}

const enginePath = "relser/internal/engine"

// coreMutators are the engine.Core methods that take engine locks or
// change run state, every stage among them (each records what it did);
// the read-only getters (Now, Committed, AppendActiveIDs, AdmitLimit) are
// fine from a hook.
var coreMutators = map[string]bool{
	"Admit": true, "Check": true, "Step": true,
	"Publish": true, "AwaitAck": true, "Acknowledge": true,
	"AbortCascade": true, "AbortAll": true, "Restart": true, "Tick": true,
	"Finalize": true, "FlushWAL": true, "JitterSleep": true, "BackoffTicks": true,
}

// reenterPrefixes are driver and sink identities a hook must not reach.
var reenterPrefixes = []string{
	"relser/internal/txn.(*Runner).",
	"relser/internal/txn.(*ConcurrentRunner).",
	"relser/internal/storage.(*ShardedWAL).Append",
	"relser/internal/storage.(*ShardedWAL).Sync",
}

// blockingWaits are method identities that park the caller.
var blockingWaits = map[callgraph.FuncID]bool{
	"sync.(*WaitGroup).Wait": true,
	"sync.(*Cond).Wait":      true,
	"time.Sleep":             true,
}

type finding struct {
	pkgPath string
	pos     token.Pos
	message string
}

func run(pass *analysis.Pass) error {
	if pass.Graph == nil {
		return fmt.Errorf("hookshape: no call graph on pass")
	}
	findings := callgraph.Memo(pass.Graph, "hookshape.findings", func() []finding {
		return compute(pass.Graph)
	})
	path := pass.Pkg.Path()
	for _, f := range findings {
		if f.pkgPath == path {
			pass.Reportf(f.pos, "%s", f.message)
		}
	}
	return nil
}

// hookSite is one place a function value is installed as a hook.
type hookSite struct {
	fn    callgraph.FuncID
	pos   token.Pos
	pkg   string // package to report in
	field string // hook field name
}

func compute(g *callgraph.Graph) []finding {
	sites := collectSites(g)

	mayBlock := g.Transitive(func(n *callgraph.Node) bool { return blocksDirectly(g, n) })
	reenters := g.Transitive(func(n *callgraph.Node) bool {
		for _, e := range n.Calls {
			if isReenter(e.Callee) {
				return true
			}
		}
		return false
	})

	ret := &retainer{g: g, memo: map[paramKey]string{}}
	var out []finding
	for _, s := range sites {
		n := g.Nodes[s.fn]
		if n == nil {
			continue
		}
		if p := paramObj(n, 0); p != nil && isInstanceType(p.Type()) {
			if why := ret.keeps(n, 0); why != "" {
				out = append(out, finding{
					pkgPath: s.pkg, pos: s.pos,
					message: fmt.Sprintf("hook %s keeps its instance (%s): the engine reuses a committed instance with its maps and slices, so copy what the hook needs", s.field, why),
				})
			}
		}
		if mayBlock[s.fn] {
			out = append(out, finding{
				pkgPath: s.pkg, pos: s.pos,
				message: fmt.Sprintf("hook %s may block (%s): hooks run synchronously under driver locks; move the wait off the hook or document with //rsvet:allow hookshape", s.field, blockReason(g, s.fn, mayBlock)),
			})
		}
		if reenters[s.fn] {
			out = append(out, finding{
				pkgPath: s.pkg, pos: s.pos,
				message: fmt.Sprintf("hook %s calls back into engine/driver mutating APIs (%s): the engine's locks are already held on the hook path", s.field, reenterReason(g, s.fn, reenters)),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pkgPath != out[j].pkgPath {
			return out[i].pkgPath < out[j].pkgPath
		}
		return out[i].pos < out[j].pos
	})
	return out
}

// collectSites finds every hook installation in the loaded packages.
func collectSites(g *callgraph.Graph) []hookSite {
	var sites []hookSite
	ids := make([]callgraph.FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		if n.Decl == nil {
			continue // literals are walked via their enclosing decl
		}
		info := n.Pkg.TypesInfo
		ast.Inspect(n.Body, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.CompositeLit:
				if !isHooksType(info.Types[e].Type) {
					return true
				}
				for _, elt := range e.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					field := "?"
					if k, ok := kv.Key.(*ast.Ident); ok {
						field = k.Name
					}
					sites = append(sites, valueSites(g, n, kv.Value, field)...)
				}
			case *ast.AssignStmt:
				for i, lhs := range e.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(e.Rhs) {
						continue
					}
					tv, ok := info.Types[sel.X]
					if !ok || !isHooksType(tv.Type) {
						continue
					}
					sites = append(sites, valueSites(g, n, e.Rhs[i], sel.Sel.Name)...)
				}
			}
			return true
		})
	}
	return sites
}

// valueSites resolves a hook-valued expression to the functions it
// installs: a direct reference, a literal, or — for combinator wrappers
// like chainHook(a, b) — every function-valued argument of the call.
func valueSites(g *callgraph.Graph, n *callgraph.Node, expr ast.Expr, field string) []hookSite {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.FuncLit:
		if child := g.LitNode(e); child != nil {
			return []hookSite{{fn: child.ID, pos: e.Pos(), pkg: n.Pkg.PkgPath, field: field}}
		}
	case *ast.Ident:
		if fn, ok := n.Pkg.TypesInfo.Uses[e].(*types.Func); ok {
			return []hookSite{{fn: callgraph.IDOf(fn), pos: e.Pos(), pkg: n.Pkg.PkgPath, field: field}}
		}
	case *ast.SelectorExpr:
		if fn, ok := n.Pkg.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return []hookSite{{fn: callgraph.IDOf(fn), pos: e.Pos(), pkg: n.Pkg.PkgPath, field: field}}
		}
	case *ast.CallExpr:
		var sites []hookSite
		for _, arg := range e.Args {
			sites = append(sites, valueSites(g, n, arg, field)...)
		}
		return sites
	}
	return nil
}

// isHooksType matches engine.Hooks (txn.Hooks is the same named type).
func isHooksType(t types.Type) bool { return isEngineType(t, "Hooks") }

// isInstanceType matches engine.Instance.
func isInstanceType(t types.Type) bool { return isEngineType(t, "Instance") }

// isEngineType matches the named engine type, or a pointer to it.
func isEngineType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == enginePath && obj.Name() == name
}

// blocksDirectly reports whether one body parks: channel operations,
// default-less selects, or a blocking wait call.
func blocksDirectly(g *callgraph.Graph, n *callgraph.Node) bool {
	found := false
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		switch e := node.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.GoStmt:
			return false // spawned work does not block the hook
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range e.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := g.CalleeOf(n.Pkg, e); ok && blockingWaits[id] {
				found = true
			}
		}
		return !found
	})
	return found
}

func isReenter(id callgraph.FuncID) bool {
	s := string(id)
	if name, ok := strings.CutPrefix(s, enginePath+".(*Core)."); ok {
		return coreMutators[name]
	}
	for _, p := range reenterPrefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// blockReason names a blocking step on the hook's path.
func blockReason(g *callgraph.Graph, root callgraph.FuncID, mayBlock map[callgraph.FuncID]bool) string {
	return pathReason(g, root, func(n *callgraph.Node) (string, bool) {
		if blocksDirectly(g, n) {
			return "blocks in " + shortID(n.ID), true
		}
		return "", false
	}, mayBlock)
}

// reenterReason names a re-entering call on the hook's path.
func reenterReason(g *callgraph.Graph, root callgraph.FuncID, reenters map[callgraph.FuncID]bool) string {
	return pathReason(g, root, func(n *callgraph.Node) (string, bool) {
		for _, e := range n.Calls {
			if isReenter(e.Callee) {
				return "calls " + shortID(e.Callee), true
			}
		}
		return "", false
	}, reenters)
}

// pathReason walks fact-holding edges from root to a node where the
// fact is direct, rendering a short explanation.
func pathReason(g *callgraph.Graph, root callgraph.FuncID, direct func(*callgraph.Node) (string, bool), fact map[callgraph.FuncID]bool) string {
	seen := map[callgraph.FuncID]bool{}
	id := root
	for !seen[id] {
		seen[id] = true
		n := g.Nodes[id]
		if n == nil {
			break
		}
		if msg, ok := direct(n); ok {
			if id == root {
				return msg
			}
			return "via " + shortID(root) + ", " + msg
		}
		next := id
		for _, e := range n.Calls {
			if fact[e.Callee] && !seen[e.Callee] {
				next = e.Callee
				break
			}
		}
		if next == id {
			break
		}
		id = next
	}
	return "transitively"
}

func shortID(id callgraph.FuncID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
