package hookshape

import (
	"go/ast"
	"go/token"
	"go/types"

	"relser/internal/analysis/callgraph"
)

// retainer decides the third fact: whether a function keeps one of its
// parameters — a hook's *engine.Instance, or a map or slice taken from
// it — past its return. A value is kept when it is assigned to
// anything that is not local, appended to a slice, sent on a channel
// or captured by a go statement; passing it to a function with a body
// keeps it when that function keeps its parameter. Local aliases
// (v := st, m := st.Writes) and composite literals and closures that
// hold the value carry it.
type retainer struct {
	g    *callgraph.Graph
	memo map[paramKey]string // "" = does not keep the parameter
}

type paramKey struct {
	fn  callgraph.FuncID
	idx int
}

// keeps returns how n keeps its idx-th parameter (receivers not
// counted), or "" when it does not. A call cycle counts as not keeping.
func (r *retainer) keeps(n *callgraph.Node, idx int) string {
	k := paramKey{n.ID, idx}
	if why, ok := r.memo[k]; ok {
		return why
	}
	r.memo[k] = "" // cycle guard
	why := ""
	if param := paramObj(n, idx); param != nil {
		why = r.scan(n, param)
	}
	r.memo[k] = why
	return why
}

// paramObj returns the object of n's idx-th parameter, nil if unnamed
// or out of range.
func paramObj(n *callgraph.Node, idx int) types.Object {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	i := 0
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			if i == idx {
				return nil
			}
			i++
			continue
		}
		for _, name := range f.Names {
			if i == idx {
				return n.Pkg.TypesInfo.Defs[name]
			}
			i++
		}
	}
	return nil
}

// scan looks for a place where n's body keeps param.
func (r *retainer) scan(n *callgraph.Node, param types.Object) string {
	info := n.Pkg.TypesInfo
	lo, hi := token.Pos(0), n.Body.End() // parameters are local too
	if n.Decl != nil {
		lo = n.Decl.Pos()
	} else {
		lo = n.Lit.Pos()
	}
	local := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		return ok && !v.IsField() && v.Pos() >= lo && v.Pos() < hi
	}
	tracked := map[types.Object]bool{param: true}
	var holds func(e ast.Expr) bool
	holds = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tracked[objOf(info, e)]
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal || !isInstanceType(info.TypeOf(e.X)) {
				return false
			}
			switch sel.Type().Underlying().(type) {
			case *types.Map, *types.Slice:
				return holds(e.X)
			}
		case *ast.StarExpr:
			return holds(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.AND && holds(e.X)
		case *ast.SliceExpr:
			return holds(e.X)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if holds(elt) {
					return true
				}
			}
		case *ast.FuncLit:
			return mentions(info, e.Body, tracked)
		}
		return false
	}
	// Local aliases, to a fixpoint.
	for changed := true; changed; {
		changed = false
		alias := func(lhs, rhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok || !holds(rhs) {
				return
			}
			if obj := objOf(info, id); obj != nil && local(obj) && !tracked[obj] {
				tracked[obj] = true
				changed = true
			}
		}
		ast.Inspect(n.Body, func(node ast.Node) bool {
			switch s := node.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						alias(s.Lhs[i], s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i := range s.Names {
						alias(s.Names[i], s.Values[i])
					}
				}
			}
			return true
		})
	}
	var localRoot func(e ast.Expr) bool
	localRoot = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := objOf(info, e)
			return e.Name == "_" || obj != nil && local(obj)
		case *ast.IndexExpr:
			return localRoot(e.X)
		case *ast.SelectorExpr:
			// A package-level variable, or a field behind a pointer, may
			// be shared.
			if info.Selections[e] == nil {
				return false
			}
			if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); ptr {
				return false
			}
			return localRoot(e.X)
		}
		return false
	}
	why := ""
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if why != "" {
			return false
		}
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				break
			}
			for i, lhs := range s.Lhs {
				if holds(s.Rhs[i]) && !localRoot(lhs) {
					why = "assigns it to " + types.ExprString(lhs)
				}
			}
		case *ast.SendStmt:
			if holds(s.Value) {
				why = "sends it on a channel"
			}
		case *ast.GoStmt:
			if mentions(info, s.Call, tracked) {
				why = "captures it in a go statement"
			}
			return false
		case *ast.CallExpr:
			why = r.call(n, s, holds)
		}
		return why == ""
	})
	return why
}

// call reports how a call keeps a held argument: append stores it (the
// elements of a spread slice are copies), and a callee with a body
// keeps it when it keeps its parameter.
func (r *retainer) call(n *callgraph.Node, call *ast.CallExpr, holds func(ast.Expr) bool) string {
	info := n.Pkg.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			for i, arg := range call.Args[1:] {
				spread := call.Ellipsis.IsValid() && i == len(call.Args)-2
				if !spread && holds(arg) {
					return "appends it to a slice"
				}
			}
			return ""
		}
	}
	fn, ok := r.g.CalleeOf(n.Pkg, call)
	if !ok {
		return ""
	}
	callee := r.g.Nodes[fn]
	if callee == nil {
		return ""
	}
	for i, arg := range call.Args {
		if !holds(arg) {
			continue
		}
		if why := r.keeps(callee, i); why != "" {
			return "passes it to " + shortID(fn) + ", which " + why
		}
	}
	return ""
}

// objOf is the object an identifier defines or uses.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// mentions reports whether node refers to a tracked object.
func mentions(info *types.Info, node ast.Node, tracked map[types.Object]bool) bool {
	found := false
	ast.Inspect(node, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && tracked[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
