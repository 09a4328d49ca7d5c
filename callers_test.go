package relser_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"

	"relser/internal/analysis/load"
)

// callerExemptDirs hold exported API kept without a non-test caller.
var callerExemptDirs = map[string]string{
	".":                              "the relser facade is public API",
	"internal/core":                  "the paper's model: tests use it as the reference",
	"internal/chopping":              "the paper's model: tests use it as the reference",
	"internal/analysis/analysistest": "test support: the analyzers' fixture tests are its callers",
}

// callerExemptFuncs are kept without a caller for a stated reason,
// keyed by directory and name, a method's name qualified by its
// receiver type.
var callerExemptFuncs = map[string]string{
	"internal/graph.Dense.TransitiveClosure": "test oracle: the reachability reference RSGT's derived labels are checked against",
	"benchmark.timedSink.AppendSync":         "the ladder's frozen WAL decorator; the engine acks through AppendAck and AwaitAck (ROADMAP item 1(h))",
}

// callerExemptMethods satisfy an interface whose caller is outside the
// tree (the standard library), so no file of the tree names them.
var callerExemptMethods = map[string]string{
	"String": "fmt.Stringer",
	"Error":  "error",
	"Unwrap": "errors.Unwrap",
}

// TestExportedFuncsHaveCallers fails on any exported function or method,
// in either module (the root and benchmark/), that no non-test file
// refers to. References are resolved with go/types, so a method counts
// as called only when its own receiver type's method is selected,
// directly or through an embedding type, or when a file calls a
// same-named method of an interface the receiver type implements. A
// function's references from its own body do not count. Test-only API is
// dead weight the tree must still keep compiling; delete it, or call it.
func TestExportedFuncsHaveCallers(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*load.Package
	for _, module := range []string{root, filepath.Join(root, "benchmark")} {
		ps, err := load.Packages(module, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}

	// The two modules are type-checked separately, so one function is a
	// different object in each; its full name is the same in both.
	used := map[string]bool{}
	var ifaceCalls []*types.Func
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = pkg.TypesInfo.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.TypesInfo.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					used[fn.FullName()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalls = append(ifaceCalls, fn)
					}
					return true
				})
			}
		}
	}

	// implements reports, by method names alone (the two modules' types
	// are not identical to each other), whether recv's method set covers
	// the interface that declares m.
	implements := func(recv types.Type, m *types.Func) bool {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		mset := types.NewMethodSet(recv)
		names := map[string]bool{}
		for i := range mset.Len() {
			names[mset.At(i).Obj().Name()] = true
		}
		for i := range iface.NumMethods() {
			if !names[iface.Method(i).Name()] {
				return false
			}
		}
		return true
	}

	deref := func(t types.Type) types.Type {
		if p, ok := t.(*types.Pointer); ok {
			return p.Elem()
		}
		return t
	}
	var dead []string
	for _, pkg := range pkgs {
		dir, err := filepath.Rel(root, pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		dir = filepath.ToSlash(dir)
		if _, ok := callerExemptDirs[dir]; ok {
			continue
		}
		for id, obj := range pkg.TypesInfo.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[fn.FullName()] {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			key := dir + "." + fn.Name()
			if recv != nil {
				if named, ok := types.Unalias(deref(recv.Type())).(*types.Named); ok {
					key = dir + "." + named.Obj().Name() + "." + fn.Name()
				}
			}
			if _, ok := callerExemptFuncs[key]; ok {
				continue
			}
			switch {
			case recv == nil:
			case types.IsInterface(recv.Type()):
				continue // an interface's method is its implementations' contract
			default:
				if _, ok := callerExemptMethods[fn.Name()]; ok {
					continue
				}
				named := false
				for _, m := range ifaceCalls {
					named = named || m.Name() == fn.Name() && implements(recv.Type(), m)
				}
				if named {
					continue
				}
			}
			dead = append(dead, pkg.Fset.Position(id.Pos()).String()+": "+fn.FullName())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files", d)
	}
}
