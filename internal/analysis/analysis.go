// Package analysis is a minimal, self-contained reimplementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package through a Pass and reports Diagnostics.
//
// The module deliberately has no third-party dependencies, so the real
// x/tools framework is not available; this package keeps the same
// shape (Analyzer/Pass/Diagnostic, a driver in internal/analysis/checker,
// an analysistest-style harness in internal/analysis/analysistest) so
// the analyzers could be ported to a x/tools multichecker by swapping
// imports if the dependency ever lands.
//
// Two comment directives are understood by the checker driver:
//
//	//rsvet:allow <analyzer>[,<analyzer>...] [-- reason]
//
// on (or immediately above) a line suppresses that line's diagnostics
// from the named analyzers — the escape hatch for deliberate,
// documented violations; and
//
//	//rsvet:locks <mutex-expr>
//
// in a function's doc comment declares that the function is called
// with the named stripe mutex held, extending the intraprocedural lock
// tracking of the stripelock analyzer across that call boundary.
//
// One more doc-comment directive feeds the interprocedural detlint
// analyzer (see internal/analysis/callgraph):
//
//	//rsvet:deterministic
//
// makes the function a detlint root: no wall clock, unseeded
// randomness or map-order dependence may be reachable from it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"relser/internal/analysis/callgraph"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rsvet:allow suppressions. By convention a short lowercase word.
	Name string
	// Doc is a one-paragraph description: first line is a summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Graph is the interprocedural call graph over every package of
	// the run (not just this pass's). Program-wide analyzers derive
	// their facts from it once (callgraph.Memo) and report, per pass,
	// only the findings positioned in this pass's package.
	Graph *callgraph.Graph
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Directive returns the arguments of every "//rsvet:<name>" line in
// the comment group (an empty-but-present directive yields one empty
// slice entry's worth of presence: ok is true with no args).
func Directive(doc *ast.CommentGroup, name string) (args []string, ok bool) {
	if doc == nil {
		return nil, false
	}
	prefix := "//rsvet:" + name
	for _, c := range doc.List {
		text, found := strings.CutPrefix(c.Text, prefix)
		if !found || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue
		}
		ok = true
		args = append(args, strings.Fields(text)...)
	}
	return args, ok
}

// LocksDirective returns the mutex expressions named by rsvet:locks
// lines in the function's doc comment: the caller's contract that the
// function only runs with those stripe mutexes held, which extends the
// stripelock analyzer's intraprocedural tracking across the call
// boundary.
func LocksDirective(fn *ast.FuncDecl) []string {
	if fn == nil {
		return nil
	}
	args, _ := Directive(fn.Doc, "locks")
	return args
}
