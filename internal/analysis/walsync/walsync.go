// Package walsync checks the durability contract of WAL sinks
// (DESIGN.md §5.3): a call that returns success from AppendSync or
// Sync must not return before the record is durable — some fsync,
// group-commit acknowledgement, or equivalent barrier has to sit on
// every success path. PR 7 stated this contract in prose ("AppendSync
// returns once the record is durable"); walsync makes it checked.
//
// Targets are
//
//   - methods named AppendSync or Sync on any type that also declares
//     an Append method — the duck signature of a storage.WALSink
//     implementation, matched by shape so test doubles and future
//     sinks are covered without importing internal/storage;
//   - any function whose doc comment carries //rsvet:durable.
//
// An acknowledgement is, syntactically: a receive from a `chan error`
// (the group-commit done channel), a call to a method named Sync,
// Fsync or Wait (file sync, cond/waitgroup barrier), a call to a
// function that transitively contains one of those, or a function-
// level //rsvet:ack directive for barriers the syntax cannot see.
// Within a target, two return shapes are flagged:
//
//   - `return nil` (success) with no acknowledgement earlier in the
//     body, and
//   - `return f(...)` where f is neither ack-transitive nor an error
//     constructor — the success path is delegated to a function that
//     never becomes durable.
//
// Returns of plain variables (`return err`) are not judged: the
// group-commit implementation receives its ack into err first, and
// the static check cannot track values.
//
// The second clause guards the lane-mutex protocol the fault schedule
// depends on: a function carrying //rsvet:locks <expr> documents that
// it must run with that mutex held, so every caller must either
// acquire a matching mutex (a .Lock()/.RLock() on an expression with
// the same final component, earlier in source order) or carry a
// matching //rsvet:locks itself. Source order is an approximation —
// the check catches callers that never acquire the lane mutex at all,
// not release-order bugs.
package walsync

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

// Analyzer is the WAL durability-contract check.
var Analyzer = &analysis.Analyzer{
	Name: "walsync",
	Doc:  "check that WAL sink success paths pass a durability barrier and //rsvet:locks callees run under their mutex",
	Run:  run,
}

// ackMethods are method names treated as durability barriers at a call
// site: file/sink syncs and blocking waits on conds or waitgroups.
var ackMethods = map[string]bool{"Sync": true, "Fsync": true, "Wait": true}

// errorCtors build error values; returning their result is a failure
// path, not an unacked success.
var errorCtors = map[callgraph.FuncID]bool{
	"errors.New": true, "fmt.Errorf": true, "errors.Join": true,
}

type finding struct {
	pkgPath string
	pos     token.Pos
	message string
}

func run(pass *analysis.Pass) error {
	if pass.Graph == nil {
		return fmt.Errorf("walsync: no call graph on pass")
	}
	findings := callgraph.Memo(pass.Graph, "walsync.findings", func() []finding {
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

func compute(g *callgraph.Graph) []finding {
	var out []finding
	out = append(out, durabilityFindings(g)...)
	out = append(out, lockFindings(g)...)
	return out
}

// --- clause 1: success paths must pass a durability barrier ---

func durabilityFindings(g *callgraph.Graph) []finding {
	// acked: functions that syntactically contain a barrier, and
	// everything that calls one — "calling this function acks".
	acked := g.Transitive(func(n *callgraph.Node) bool {
		if _, ok := analysis.Directive(n.Doc(), "ack"); ok {
			return true
		}
		return containsAck(n)
	})

	// Receiver types with both Append and AppendSync nodes are WAL
	// sinks by shape.
	methods := map[string]map[string]callgraph.FuncID{} // recvKey -> name -> id
	for id, n := range g.Nodes {
		if n.Decl == nil || n.Decl.Recv == nil {
			continue
		}
		recv, name := splitMethod(id)
		if recv == "" {
			continue
		}
		if methods[recv] == nil {
			methods[recv] = map[string]callgraph.FuncID{}
		}
		methods[recv][name] = id
	}
	var targets []callgraph.FuncID
	for _, byName := range methods {
		if _, hasAppend := byName["Append"]; !hasAppend {
			continue
		}
		if _, hasSync := byName["AppendSync"]; !hasSync {
			continue
		}
		for _, name := range []string{"AppendSync", "Sync"} {
			if id, ok := byName[name]; ok {
				targets = append(targets, id)
			}
		}
	}
	for id, n := range g.Nodes {
		if _, ok := analysis.Directive(n.Doc(), "durable"); ok {
			targets = append(targets, id)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	var out []finding
	seen := map[callgraph.FuncID]bool{}
	for _, id := range targets {
		if seen[id] {
			continue
		}
		seen[id] = true
		n := g.Nodes[id]
		if _, ok := analysis.Directive(n.Doc(), "ack"); ok {
			continue
		}
		out = append(out, checkTarget(g, n, acked)...)
	}
	return out
}

// containsAck reports whether the node's own body has a syntactic
// durability barrier: a receive from a chan error, or a call to an
// ack-named method.
func containsAck(n *callgraph.Node) bool {
	found := false
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		if isAckExpr(n.Pkg.TypesInfo, node) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isAckExpr classifies one AST node as a barrier.
func isAckExpr(info *types.Info, node ast.Node) bool {
	switch e := node.(type) {
	case *ast.UnaryExpr:
		if e.Op != token.ARROW {
			return false
		}
		tv, ok := info.Types[e.X]
		if !ok || tv.Type == nil {
			return false
		}
		ch, ok := tv.Type.Underlying().(*types.Chan)
		return ok && ch.Elem().String() == "error"
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		return ok && ackMethods[sel.Sel.Name]
	}
	return false
}

// checkTarget walks one target body, flagging success returns with no
// barrier earlier in source order.
func checkTarget(g *callgraph.Graph, n *callgraph.Node, acked map[callgraph.FuncID]bool) []finding {
	var ackPositions []token.Pos
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if isAckExpr(n.Pkg.TypesInfo, node) {
			ackPositions = append(ackPositions, node.Pos())
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if id, ok := g.CalleeOf(n.Pkg, call); ok && acked[id] {
				ackPositions = append(ackPositions, call.Pos())
			}
		}
		return true
	})
	ackBefore := func(pos token.Pos) bool {
		for _, p := range ackPositions {
			if p < pos {
				return true
			}
		}
		return false
	}

	var out []finding
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := node.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		last := ast.Unparen(ret.Results[len(ret.Results)-1])
		switch e := last.(type) {
		case *ast.Ident:
			if e.Name == "nil" && !ackBefore(ret.Pos()) {
				out = append(out, finding{
					pkgPath: n.Pkg.PkgPath, pos: ret.Pos(),
					message: fmt.Sprintf("%s returns success with no durability barrier on this path: an fsync or group-commit ack must precede it", n.Name()),
				})
			}
		case *ast.CallExpr:
			id, resolved := g.CalleeOf(n.Pkg, e)
			if !resolved || acked[id] || errorCtors[id] {
				return true
			}
			if !ackBefore(ret.Pos()) {
				out = append(out, finding{
					pkgPath: n.Pkg.PkgPath, pos: ret.Pos(),
					message: fmt.Sprintf("%s delegates its success path to %s, which reaches no fsync or group-commit ack", n.Name(), shortID(id)),
				})
			}
		}
		return true
	})
	return out
}

// --- clause 2: //rsvet:locks callees run under their mutex ---

func lockFindings(g *callgraph.Graph) []finding {
	type contract struct {
		id   callgraph.FuncID
		want string // final component of the lock expression
		expr string // as written in the directive
	}
	var contracts []contract
	for id, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		for _, expr := range analysis.LocksDirective(n.Decl) {
			contracts = append(contracts, contract{id: id, want: finalComponent(expr), expr: expr})
		}
	}
	sort.Slice(contracts, func(i, j int) bool { return contracts[i].id < contracts[j].id })

	var out []finding
	for _, c := range contracts {
		for _, callerID := range g.Callers(c.id) {
			caller := g.Nodes[callerID]
			if caller == nil {
				continue
			}
			if callerHolds(caller, c.want) {
				continue
			}
			for _, e := range caller.Calls {
				if e.Callee != c.id {
					continue
				}
				if lockAcquiredBefore(caller, c.want, e.Pos) {
					continue
				}
				out = append(out, finding{
					pkgPath: caller.Pkg.PkgPath, pos: e.Pos,
					message: fmt.Sprintf("call to %s requires %s held (//rsvet:locks), but %s neither locks a matching mutex before the call nor declares //rsvet:locks %s",
						shortID(c.id), c.expr, caller.Name(), c.expr),
				})
			}
		}
	}
	return out
}

// callerHolds reports whether the caller declares the same lock
// contract, propagating the obligation to its own callers.
func callerHolds(n *callgraph.Node, want string) bool {
	if n.Decl == nil {
		return false
	}
	for _, expr := range analysis.LocksDirective(n.Decl) {
		if finalComponent(expr) == want {
			return true
		}
	}
	return false
}

// lockAcquiredBefore reports whether the caller calls .Lock()/.RLock()
// on an expression whose final component matches, earlier in source
// order than pos.
func lockAcquiredBefore(n *callgraph.Node, want string, pos token.Pos) bool {
	held := false
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if held {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if finalComponent(exprString(sel.X)) == want {
			held = true
		}
		return true
	})
	return held
}

// exprString renders the receiver of a Lock call ("sh.mu", "w.lanes[i].mu").
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	}
	return ""
}

func finalComponent(s string) string {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// splitMethod decomposes "pkg.(Recv).Name" into (pkg.(Recv), Name);
// recv is "" for non-methods and literals.
func splitMethod(id callgraph.FuncID) (recv, name string) {
	s := string(id)
	close := strings.LastIndexByte(s, ')')
	if close < 0 || close+1 >= len(s) || s[close+1] != '.' {
		return "", ""
	}
	return s[:close+1], s[close+2:]
}

func shortID(id callgraph.FuncID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
