package relser_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerExemptDirs hold exported API kept without a non-test caller.
var callerExemptDirs = map[string]string{
	".":                 "the relser facade is public API",
	"internal/core":     "the paper's model: tests use it as the reference",
	"internal/chopping": "the paper's model: tests use it as the reference",
}

// callerExemptFuncs are test oracles, keyed by directory and name.
var callerExemptFuncs = map[string]string{
	"internal/graph.TransitiveClosure": "the reachability reference RSGT's derived labels are checked against",
}

// callerExemptMethods satisfy an interface whose caller is outside the
// tree (the standard library), so no selector names them.
var callerExemptMethods = map[string]string{
	"String": "fmt.Stringer",
	"Error":  "error",
	"Unwrap": "errors.Unwrap",
}

// TestExportedFuncsHaveCallers fails on any exported function or method,
// in either module (the root and benchmark/), that no non-test file
// references. The scan is by name: a package-level function counts as
// called when its package mentions it or an importer selects it; a
// method counts as called when any non-test file selects that method
// name on anything. Test-only API is dead weight the tree must still
// keep compiling; delete it, or call it.
func TestExportedFuncsHaveCallers(t *testing.T) {
	type decl struct {
		dir, name string
		method    bool
		pos       token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{}   // dir + "." + name
	methodRefs := map[string]bool{} // selected names
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> directory
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if p != "relser" && !strings.HasPrefix(p, "relser/") {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = strings.TrimPrefix(strings.TrimPrefix(p, "relser"), "/")
			if imports[local] == "" {
				imports[local] = "."
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if fn.Name.IsExported() {
				decls = append(decls, decl{dir: dir, name: fn.Name.Name, method: fn.Recv != nil, pos: fset.Position(fn.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					funcRefs[dir+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if _, ok := callerExemptDirs[d.dir]; ok {
			continue
		}
		if _, ok := callerExemptFuncs[d.dir+"."+d.name]; ok {
			continue
		}
		if d.method {
			if _, ok := callerExemptMethods[d.name]; ok || methodRefs[d.name] {
				continue
			}
		} else if funcRefs[d.dir+"."+d.name] {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files", d)
	}
}
