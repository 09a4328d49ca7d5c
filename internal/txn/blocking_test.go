package txn_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// blockingCalls are the functions and methods, by name, that block the
// calling goroutine on someone else: cond and WaitGroup waits, sleeps
// (plain, injected and the restart back-off), the injected wedge and
// the commit record's ack.
var blockingCalls = map[string]bool{
	"Wait": true, "Sleep": true, "SleepCtx": true, "JitterSleep": true,
	"WedgeCtx": true, "AwaitAck": true,
}

// blockingExempt are the blocking points allowed outside
// ConcurrentRunner.wait, keyed by scope and construct: the enclosing
// function ("Type.Method", a function literal in it as ".funcN", in
// source order) and the called function as written, "select" or the
// receive.
var blockingExempt = map[string]string{
	"ConcurrentRunner.RunContext: wg.Wait":           "the run waits for its workers; it is not one",
	"ConcurrentRunner.RunContext.func1: select":      "the cancellation watcher is not a worker",
	"ConcurrentRunner.startWatchdog.func1: select":   "the watchdog is not a worker",
	"ConcurrentRunner.startWatchdog.func2: <-done":   "the watchdog's stop, called by the run once its workers are gone",
	"ConcurrentRunner.runProgram: fault.SleepCtx":    "the injected grant delay: a slow running worker keeps its hold",
	"ConcurrentRunner.appliedLocked: fault.SleepCtx": "the injected stall: a slow running worker keeps its hold",
	"ConcurrentRunner.appliedLocked: in.WedgeCtx":    "the injected wedge: a stuck running worker keeps its hold",
	"ConcurrentRunner.tryFinish: r.eng.AwaitAck":     "the log takes the hold in AppendAck and hands it back with the ack",
	"Runner.tick: r.eng.AwaitAck":                    "the tick driver runs on one goroutine and never holds the log",
}

// TestWorkersBlockOnlyInWait parses the package's non-test files and
// fails on every call in blockingCalls, receive and select without a
// default case that is neither in a function literal passed to wait
// nor exempt, and on every exemption that matches nothing. A worker
// that blocks on another worker outside wait keeps its hold on the log,
// and the log holds back the acks the others wait for.
func TestWorkersBlockOnlyInWait(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := map[string]bool{}
	var bad []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scope := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				scope = types.ExprString(recv) + "." + scope
			}
			blockingPoints(scope, new(int), fd.Body, func(key string, pos token.Pos) {
				if _, ok := blockingExempt[key]; ok {
					used[key] = true
				} else {
					bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(pos), key))
				}
			})
		}
	}
	for _, b := range bad {
		t.Errorf("%s blocks outside wait", b)
	}
	var stale []string
	for key := range blockingExempt {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("exemption %q matches no blocking point: delete it", key)
	}
}

// blockingPoints reports every blocking point under root in scope;
// lits counts the function literals met so far in that scope.
func blockingPoints(scope string, lits *int, root ast.Node, report func(key string, pos token.Pos)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			*lits++
			blockingPoints(fmt.Sprintf("%s.func%d", scope, *lits), new(int), n.Body, report)
			return false
		case *ast.CallExpr:
			name := calleeName(n.Fun)
			if name == "wait" { // a literal passed to wait blocks inside it
				for _, a := range n.Args {
					if _, ok := a.(*ast.FuncLit); ok {
						*lits++
					} else {
						blockingPoints(scope, lits, a, report)
					}
				}
				return false
			}
			if blockingCalls[name] {
				report(scope+": "+types.ExprString(n.Fun), n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(scope+": <-"+types.ExprString(n.X), n.Pos())
			}
		case *ast.SelectStmt:
			// A select's receives block only when it has no default case.
			hasDefault := false
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				hasDefault = hasDefault || cc.Comm == nil
				for _, s := range cc.Body {
					blockingPoints(scope, lits, s, report)
				}
			}
			if !hasDefault {
				report(scope+": select", n.Pos())
			}
			return false
		}
		return true
	})
}

func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
