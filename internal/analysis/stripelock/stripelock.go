// Package stripelock enforces the stripe-mutex discipline of the
// sharded hot path (internal/txn's driver stripes and commit queue,
// internal/sched's striped lock tables, internal/storage's store
// stripes):
//
//  1. Stripe mutexes of one stripe array must be acquired in ascending
//     index order, and never nested unless that order is provable
//     (both indices constant). Nesting two distinct stripes that the
//     analyzer cannot order — or re-acquiring a held stripe — is
//     reported.
//  2. While a stripe mutex is held, the critical section must stay
//     local: no channel send, no Broadcast/Signal on a condition
//     variable that does not belong to the held stripe, and no
//     fault-injector consultation (Fire/FireCut/WedgeCtx) — each of
//     those hands control to another goroutine or to the seeded
//     injector while same-shard neighbors are blocked.
//
// A stripe mutex is a sync.Mutex/RWMutex owned (as a field or by
// embedding) by a struct whose type name contains "stripe", "shard" or
// "queue" (case-insensitive): waitQueue (the driver's stripes and its
// commit queue are one type), s2plStripe, toStripe, storeStripe.
// Tracking is intraprocedural; functions documented with an
// "//rsvet:locks <expr>" directive are analyzed as if <expr> were
// locked on entry (the repo's "called with sh.mu held" contracts).
// Deliberate violations — the shard.stall fault point fires under the
// shard lock by design — carry //rsvet:allow stripelock suppressions.
package stripelock

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"relser/internal/analysis"
)

// Analyzer is the stripe-discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "stripelock",
	Doc:  "check stripe-mutex ordering and forbidden operations under a held stripe",
	Run:  run,
}

var stripeTypeRe = regexp.MustCompile(`(?i)(stripe|shard|queue)`)

// faultInjectorPath is the fault injector's package; consulting it
// while a stripe is held serializes the injector's deterministic
// schedule behind the stripe and stalls same-shard neighbors.
const faultInjectorPath = "relser/internal/fault"

// held is one currently-held stripe mutex.
type held struct {
	expr string // printed mutex expression, e.g. "sh.mu"
	base string // owning stripe expression, e.g. "sh" or "p.stripes[i]"
	arr  string // stripe array expression if indexed, e.g. "p.stripes"
	idx  ast.Expr
	pos  token.Pos
}

type walker struct {
	pass *analysis.Pass
}

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var entry []held
			for _, expr := range analysis.LocksDirective(fn) {
				entry = append(entry, held{expr: expr, base: strings.TrimSuffix(expr, ".mu")})
			}
			w.stmts(fn.Body.List, entry)
		}
	}
	return nil
}

// stmts scans a statement sequence linearly, threading the held-lock
// set through it, and returns the set at the end of the sequence.
// Branch and loop bodies are scanned with a copy of the entry set and
// assumed lock-balanced (the codebase convention); a deferred Unlock
// keeps its mutex in the set, which is exactly the "held until return"
// semantics the checks need.
func (w *walker) stmts(list []ast.Stmt, locks []held) []held {
	for _, stmt := range list {
		locks = w.stmt(stmt, locks)
	}
	return locks
}

func (w *walker) stmt(stmt ast.Stmt, locks []held) []held {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, locks)
	case *ast.SendStmt:
		w.checkSend(s, locks)
		w.exprOnly(s.Value, locks)
		return locks
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprOnly(e, locks)
		}
		return locks
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: the mutex stays held
		// for the remainder of the function, so keep it in the set.
		// Other deferred calls run after the body; skip their args.
		return locks
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, nil)
		}
		return locks
	case *ast.BlockStmt:
		w.stmts(s.List, append([]held(nil), locks...))
		return locks
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, locks)
		}
		w.exprOnly(s.Cond, locks)
		w.stmts(s.Body.List, append([]held(nil), locks...))
		if s.Else != nil {
			w.stmt(s.Else, append([]held(nil), locks...))
		}
		return locks
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, locks)
		}
		w.stmts(s.Body.List, append([]held(nil), locks...))
		return locks
	case *ast.RangeStmt:
		w.stmts(s.Body.List, append([]held(nil), locks...))
		return locks
	case *ast.SwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, append([]held(nil), locks...))
			}
		}
		return locks
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, append([]held(nil), locks...))
			}
		}
		return locks
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					w.checkSend(send, locks)
				}
				w.stmts(cc.Body, append([]held(nil), locks...))
			}
		}
		return locks
	case *ast.ReturnStmt, *ast.BranchStmt, *ast.IncDecStmt, *ast.DeclStmt,
		*ast.LabeledStmt, *ast.EmptyStmt:
		return locks
	default:
		return locks
	}
}

// expr handles an expression statement: mutex transitions and the
// forbidden-call checks.
func (w *walker) expr(e ast.Expr, locks []held) []held {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return locks
	}
	if h, op, isStripe := w.mutexOp(call); op != "" && isStripe {
		switch op {
		case "Lock", "RLock":
			w.checkOrder(h, locks)
			return append(locks, h)
		case "Unlock", "RUnlock":
			for i, l := range locks {
				if l.expr == h.expr {
					return append(append([]held(nil), locks[:i]...), locks[i+1:]...)
				}
			}
			return locks
		}
	}
	w.exprOnly(e, locks)
	return locks
}

// exprOnly checks an expression tree for forbidden calls under held
// stripes without changing the lock set.
func (w *walker) exprOnly(e ast.Expr, locks []held) {
	if e == nil || len(locks) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, nil)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.checkCondCall(call, locks)
		w.checkFaultCall(call, locks)
		return true
	})
}

// checkOrder reports nesting violations when acquiring h with locks
// already held.
func (w *walker) checkOrder(h held, locks []held) {
	for _, l := range locks {
		if l.expr == h.expr {
			w.pass.Reportf(h.pos, "stripe mutex %s acquired while already held (self-deadlock)", h.expr)
			continue
		}
		if l.arr != "" && l.arr == h.arr {
			ci, iok := w.constInt(l.idx)
			cj, jok := w.constInt(h.idx)
			switch {
			case iok && jok && cj > ci:
				// Provably ascending: allowed.
			case iok && jok:
				w.pass.Reportf(h.pos,
					"stripe %s[%d] locked while %s[%d] is held; stripes must be acquired in ascending index order",
					h.arr, cj, l.arr, ci)
			default:
				w.pass.Reportf(h.pos,
					"stripe mutex %s acquired while %s is held and the index order cannot be proven ascending",
					h.expr, l.expr)
			}
			continue
		}
		w.pass.Reportf(h.pos,
			"stripe mutex %s acquired while stripe mutex %s is held; nested stripes need a provable ascending order",
			h.expr, l.expr)
	}
}

func (w *walker) checkSend(s *ast.SendStmt, locks []held) {
	if len(locks) == 0 {
		return
	}
	w.pass.Reportf(s.Arrow,
		"channel send on %s while stripe mutex %s is held; sends can block the whole stripe",
		render(s.Chan), locks[0].expr)
}

// checkCondCall flags Broadcast/Signal on a sync.Cond that does not
// belong to a held stripe (waking the stripe's own cond under its
// mutex is the standard pattern and stays allowed).
func (w *walker) checkCondCall(call *ast.CallExpr, locks []held) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Broadcast" && sel.Sel.Name != "Signal") {
		return
	}
	if !isNamed(w.typeOf(sel.X), "sync", "Cond") {
		return
	}
	condBase := render(sel.X)
	if dot := strings.LastIndex(condBase, "."); dot >= 0 {
		condBase = condBase[:dot]
	}
	for _, l := range locks {
		if condBase != l.base {
			w.pass.Reportf(call.Pos(),
				"%s on foreign condition variable %s while stripe mutex %s is held",
				sel.Sel.Name, render(sel.X), l.expr)
			return
		}
	}
}

// checkFaultCall flags fault-injector consultations under a stripe.
func (w *walker) checkFaultCall(call *ast.CallExpr, locks []held) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Fire", "FireCut", "WedgeCtx":
	default:
		return
	}
	obj, ok := w.pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != faultInjectorPath {
		return
	}
	w.pass.Reportf(call.Pos(),
		"fault injector %s consulted while stripe mutex %s is held; injection under a stripe stalls same-shard neighbors",
		sel.Sel.Name, locks[0].expr)
}

// mutexOp recognizes Lock/RLock/Unlock/RUnlock calls on a stripe
// mutex and returns its descriptor.
func (w *walker) mutexOp(call *ast.CallExpr) (held, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return held{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return held{}, "", false
	}
	recv := sel.X // the mutex expression, or the stripe for embedding
	t := w.typeOf(recv)
	var stripe ast.Expr
	switch {
	case isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex"):
		// Field form: stripe.mu.Lock(). The owner is the selector base.
		s, ok := recv.(*ast.SelectorExpr)
		if !ok || !isStripeType(w.typeOf(s.X)) {
			return held{}, sel.Sel.Name, false
		}
		stripe = s.X
	case isStripeType(t):
		// Embedded form: stripe.Lock().
		stripe = recv
	default:
		return held{}, sel.Sel.Name, false
	}
	h := held{expr: render(recv), base: render(stripe), pos: call.Pos()}
	if ix, ok := stripe.(*ast.IndexExpr); ok {
		h.arr = render(ix.X)
		h.idx = ix.Index
	}
	return h, sel.Sel.Name, true
}

func (w *walker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *walker) constInt(e ast.Expr) (int64, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// isStripeType reports whether t (after pointer indirection) is a
// named struct whose name marks it a stripe/shard.
func isStripeType(t types.Type) bool {
	t = deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return false
	}
	return stripeTypeRe.MatchString(named.Obj().Name())
}

func isNamed(t types.Type, pkg, name string) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkg
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// render prints an expression compactly for identity comparison and
// diagnostics.
func render(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
