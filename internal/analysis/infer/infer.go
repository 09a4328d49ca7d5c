// Package infer synthesizes a relative-atomicity specification from
// workload source code, without running it. It extracts each
// transaction program's read/write key sets from `core.T(id,
// ...)` construction sites, follows helper calls interprocedurally to
// recover the access sets they contribute, and feeds the result to
// speclint's potential-RSG machinery to emit the finest chop the
// static argument can certify.
//
// Grouping rule: an operation built inline in the core.T call
// (core.R("x"), core.W("x")) is a programmer-visible step and becomes
// its own candidate unit; operations bundled by one helper call
// (debitCredit("a", "b"), or a spread helper(...)... argument) were
// packaged as one step and stay one atomic unit. The synthesized spec
// cuts Atomicity(Ti, Tj) exactly at Ti's step boundaries for pairs in
// the same conflict component — the finest spec the code's own
// structure supports — and leaves cross-component pairs absolute,
// which certification ignores (no D-arcs) and speclint's breakpoint
// lint prefers.
//
// Helper evaluation is deliberately shallow and explicit: a helper
// must return core.R/core.W calls, a []core.Op composite literal of
// them, or delegate to another such helper (bounded depth); string
// arguments resolve through Go constant folding plus parameter
// substitution at the call site. Anything else — loops, appends,
// dynamic keys — is reported as an unresolved shape in Notes, never
// silently dropped, because an incomplete access set would make the
// certificate unsound.
package infer

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"relser/internal/analysis/load"
	"relser/internal/analysis/speclint"
	"relser/internal/core"
)

const corePath = "relser/internal/core"

// maxHelperDepth bounds helper-to-helper delegation.
const maxHelperDepth = 8

// Txn is one extracted transaction program: its operations in program
// order, partitioned into the steps the source code exhibits.
type Txn struct {
	ID     core.TxnID
	Groups [][]core.Op
}

// Ops flattens the step groups into program order.
func (t Txn) Ops() []core.Op {
	var ops []core.Op
	for _, g := range t.Groups {
		ops = append(ops, g...)
	}
	return ops
}

// groupLens returns the unit lengths SetUnits wants.
func (t Txn) groupLens() []int {
	lens := make([]int, len(t.Groups))
	for i, g := range t.Groups {
		lens[i] = len(g)
	}
	return lens
}

// Result is one package's synthesis.
type Result struct {
	PkgPath string
	Txns    []Txn
	// Spec is the synthesized specification over the extracted set.
	Spec *core.Spec
	// Report is speclint's verdict on Spec; Report.Certified means the
	// static potential-RSG argument covers every execution.
	Report speclint.Report
	// Notes records shapes the extractor could not resolve. A non-empty
	// Notes list means the access sets may be incomplete and the
	// certificate only covers the extracted operations.
	Notes []string
}

// Package extracts transaction programs from one loaded package and
// synthesizes the finest certifiable spec. It fails when the package
// constructs no transactions.
func Package(pkg *load.Package) (*Result, error) {
	x := &extractor{pkg: pkg, byID: map[core.TxnID]*Txn{}}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			x.visitCall(call)
			return true
		})
	}
	if len(x.byID) == 0 {
		return nil, fmt.Errorf("infer: no core.T construction sites in %s", pkg.PkgPath)
	}

	res := &Result{PkgPath: pkg.PkgPath, Notes: x.notes}
	ids := make([]core.TxnID, 0, len(x.byID))
	for id := range x.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var txns []*core.Transaction
	for _, id := range ids {
		t := *x.byID[id]
		res.Txns = append(res.Txns, t)
		txns = append(txns, core.T(id, t.Ops()...))
	}
	ts, err := core.NewTxnSet(txns...)
	if err != nil {
		return nil, fmt.Errorf("infer: %s: %v", pkg.PkgPath, err)
	}

	// Cut every same-component ordered pair at Ti's step boundaries;
	// cross-component pairs stay absolute (no D-arcs reach them).
	sp := core.NewSpec(ts)
	comp := speclint.ConflictComponents(ts)
	for _, ti := range res.Txns {
		for _, tj := range res.Txns {
			if ti.ID == tj.ID || comp[ti.ID] != comp[tj.ID] {
				continue
			}
			if len(ti.Groups) == 1 {
				continue // single step: absolute is already the finest
			}
			if err := sp.SetUnits(ti.ID, tj.ID, ti.groupLens()...); err != nil {
				return nil, fmt.Errorf("infer: %s: %v", pkg.PkgPath, err)
			}
		}
	}
	res.Spec = sp
	res.Report = speclint.Check(sp)
	return res, nil
}

// InstanceText renders the synthesis in the instance-file grammar
// (core.ParseInstance reads it back): txn lines, then allowall for
// fully chopped pairs and atomicity lines for coarser ones.
func (r *Result) InstanceText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# spec inferred by rsvet -infer from %s\n", r.PkgPath)
	for _, t := range r.Txns {
		fmt.Fprintf(&sb, "txn %d:", int(t.ID))
		for _, op := range t.Ops() {
			sb.WriteByte(' ')
			sb.WriteString(opText(op))
		}
		sb.WriteByte('\n')
	}
	for _, ti := range r.Txns {
		for _, tj := range r.Txns {
			if ti.ID == tj.ID || r.Spec.NumUnits(ti.ID, tj.ID) == 1 {
				continue
			}
			if r.Spec.NumUnits(ti.ID, tj.ID) == len(ti.Ops()) {
				fmt.Fprintf(&sb, "allowall %d %d\n", int(ti.ID), int(tj.ID))
				continue
			}
			fmt.Fprintf(&sb, "atomicity %d %d:", int(ti.ID), int(tj.ID))
			ops := ti.Ops()
			for k := 0; k < r.Spec.NumUnits(ti.ID, tj.ID); k++ {
				start, end := r.Spec.Unit(ti.ID, tj.ID, k)
				sb.WriteString(" [")
				for s := start; s <= end; s++ {
					if s > start {
						sb.WriteByte(' ')
					}
					sb.WriteString(opText(ops[s]))
				}
				sb.WriteByte(']')
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func opText(op core.Op) string {
	k := "r"
	if op.Kind == core.WriteOp {
		k = "w"
	}
	return k + "[" + op.Object + "]"
}

// extractor walks one package for core.T sites.
type extractor struct {
	pkg   *load.Package
	byID  map[core.TxnID]*Txn
	notes []string
}

func (x *extractor) notef(pos ast.Node, format string, args ...any) {
	p := x.pkg.Fset.Position(pos.Pos())
	x.notes = append(x.notes, fmt.Sprintf("%s: %s", p, fmt.Sprintf(format, args...)))
}

// visitCall handles one call expression if it is core.T(...) (or the
// relser facade's T, a var alias of it).
func (x *extractor) visitCall(call *ast.CallExpr) {
	c, ok := x.resolve(call)
	if !ok || c.path != corePath || c.name != "T" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	idVal, ok := x.constInt(call.Args[0])
	if !ok {
		x.notef(call, "core.T with non-constant transaction id: site skipped")
		return
	}
	id := core.TxnID(idVal)
	var groups [][]core.Op
	complete := true
	for i, arg := range call.Args[1:] {
		spread := call.Ellipsis.IsValid() && i == len(call.Args)-2
		ops, ok := x.evalOpsExpr(arg, nil, maxHelperDepth)
		if !ok {
			complete = false
			continue
		}
		if spread || len(ops) > 1 {
			groups = append(groups, ops) // helper-bundled: one step
			continue
		}
		for _, op := range ops {
			groups = append(groups, []core.Op{op}) // inline: own step
		}
	}
	if !complete {
		x.notef(call, "core.T(%d, ...): unresolved argument(s); transaction skipped (access set would be incomplete)", idVal)
		return
	}
	if prev, dup := x.byID[id]; dup {
		if !sameGroups(prev.Groups, groups) {
			x.notef(call, "core.T(%d, ...): conflicting redefinition; keeping the first site", idVal)
		}
		return
	}
	x.byID[id] = &Txn{ID: id, Groups: groups}
}

func sameGroups(a, b [][]core.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Kind != b[i][j].Kind || a[i][j].Object != b[i][j].Object {
				return false
			}
		}
	}
	return true
}

// evalOpsExpr evaluates an expression expected to produce operations:
// a core.R/W call, a helper call, or (inside helpers) a []core.Op
// composite literal. env maps helper parameters to resolved strings.
func (x *extractor) evalOpsExpr(expr ast.Expr, env map[string]string, depth int) ([]core.Op, bool) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.CallExpr:
		return x.evalCall(e, env, depth)
	case *ast.CompositeLit:
		tv, ok := x.pkg.TypesInfo.Types[e]
		if !ok || !isOpSlice(tv.Type) {
			x.notef(e, "composite literal is not []core.Op")
			return nil, false
		}
		var ops []core.Op
		for _, elt := range e.Elts {
			sub, ok := x.evalOpsExpr(elt, env, depth)
			if !ok {
				return nil, false
			}
			ops = append(ops, sub...)
		}
		return ops, true
	}
	x.notef(expr, "cannot statically resolve operation expression")
	return nil, false
}

// evalCall evaluates core.R/W or a source-visible helper call.
func (x *extractor) evalCall(call *ast.CallExpr, env map[string]string, depth int) ([]core.Op, bool) {
	c, ok := x.resolve(call)
	if !ok {
		x.notef(call, "cannot statically resolve callee")
		return nil, false
	}
	if c.path == corePath {
		switch c.name {
		case "R", "W":
			if len(call.Args) != 1 {
				return nil, false
			}
			obj, ok := x.stringValue(call.Args[0], env)
			if !ok {
				x.notef(call, "core.%s with non-constant object key", c.name)
				return nil, false
			}
			if c.name == "R" {
				return []core.Op{core.R(obj)}, true
			}
			return []core.Op{core.W(obj)}, true
		}
		x.notef(call, "unsupported core.%s call in transaction body", c.name)
		return nil, false
	}
	if depth == 0 {
		x.notef(call, "helper nesting exceeds depth %d", maxHelperDepth)
		return nil, false
	}
	decl := x.declOf(c.fn)
	if decl == nil || decl.Body == nil {
		x.notef(call, "helper %s has no source in this package", c.name)
		return nil, false
	}
	// Bind constant-resolvable arguments to parameter names.
	sub := map[string]string{}
	params := flattenParams(decl)
	for i, arg := range call.Args {
		if i >= len(params) {
			break
		}
		if v, ok := x.stringValue(arg, env); ok {
			sub[params[i]] = v
		}
	}
	ret := singleReturn(decl)
	if ret == nil || len(ret.Results) != 1 {
		x.notef(call, "helper %s is not a single-return op builder", c.name)
		return nil, false
	}
	return x.evalOpsExpr(ret.Results[0], sub, depth-1)
}

// callee identifies a call target: the declaring package path and
// name, plus the function object when there is one (the relser facade
// re-exports T/R/W as var aliases, which resolve by name alone).
type callee struct {
	path, name string
	fn         *types.Func
}

// facadeNames are the relser root-package var aliases of core builders.
var facadeNames = map[string]bool{"T": true, "R": true, "W": true}

// resolve finds the static callee of a call.
func (x *extractor) resolve(call *ast.CallExpr) (callee, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = x.pkg.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = x.pkg.TypesInfo.Uses[fun.Sel]
	}
	switch o := obj.(type) {
	case *types.Func:
		if o.Pkg() == nil {
			return callee{}, false
		}
		return callee{path: o.Pkg().Path(), name: o.Name(), fn: o}, true
	case *types.Var:
		if o.Pkg() != nil && o.Pkg().Path() == "relser" && facadeNames[o.Name()] {
			return callee{path: corePath, name: o.Name()}, true
		}
	}
	return callee{}, false
}

// declOf finds a function's declaration in the loaded package.
func (x *extractor) declOf(fn *types.Func) *ast.FuncDecl {
	if fn == nil {
		return nil
	}
	for _, f := range x.pkg.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := x.pkg.TypesInfo.Defs[decl.Name].(*types.Func); ok && obj == fn {
					return decl
				}
			}
		}
	}
	return nil
}

// singleReturn returns the declaration's sole top-level return.
func singleReturn(decl *ast.FuncDecl) *ast.ReturnStmt {
	var ret *ast.ReturnStmt
	for _, stmt := range decl.Body.List {
		if r, ok := stmt.(*ast.ReturnStmt); ok {
			if ret != nil {
				return nil
			}
			ret = r
		}
	}
	return ret
}

func flattenParams(decl *ast.FuncDecl) []string {
	var out []string
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, name.Name)
		}
	}
	return out
}

// stringValue resolves an expression to a string through Go constant
// folding, falling back to the helper parameter environment.
func (x *extractor) stringValue(e ast.Expr, env map[string]string) (string, bool) {
	if tv, ok := x.pkg.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && env != nil {
		if v, ok := env[id.Name]; ok {
			return v, true
		}
	}
	return "", false
}

// constInt resolves a constant integer expression.
func (x *extractor) constInt(e ast.Expr) (int64, bool) {
	tv, ok := x.pkg.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

func isOpSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == corePath && obj.Name() == "Op"
}
