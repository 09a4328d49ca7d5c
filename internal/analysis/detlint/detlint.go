// Package detlint guards the determinism contract that record/replay
// (DESIGN.md §5.5) rests on: nothing that feeds an engine decision may
// read the wall clock, draw from unseeded randomness, or branch on Go
// map iteration order. A violation is the class of bug that silently
// breaks `.rsrec` byte-identity — the recording replays on the same
// seed yet diverges because some decision consulted a source the seed
// does not pin.
//
// Deterministic roots are
//
//   - the engine's decision-stage methods (engine.Core's Admit, Check,
//     Step, Publish, Acknowledge, AbortCascade, AbortAll and Restart —
//     the Commit stage is Publish and Acknowledge, and the ack wait
//     between them, AwaitAck, decides nothing: it only receives the
//     log's verdict);
//   - every function of internal/record and internal/replay (the
//     capture and re-execution halves of the harness);
//   - any function whose doc comment carries //rsvet:deterministic.
//
// Two checks with different reach:
//
//  1. Interprocedural: a call to time.Now/Since/Until (or the timer
//     constructors) or to a math/rand global-source function anywhere
//     in the call graph reachable from a root is reported at the call
//     site, with the shortest root chain in the message. Methods on a
//     *rand.Rand instance are exempt — instances are seeded from the
//     run config by convention.
//  2. Local: a `range` over a map directly inside a root function is
//     reported. Order-insensitive folds are common, so this check
//     deliberately does not follow calls; a deliberate fold carries
//     //rsvet:allow detlint with its order-insensitivity argument.
//
// Soundness caveats (documented, not accidental): calls through
// function values and interfaces are not followed, and goroutines
// spawned with `go` are outside the synchronous contract.
package detlint

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

// Analyzer is the determinism-contract check.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "check that no wall clock, unseeded randomness or map-order dependence is reachable from deterministic roots",
	Run:  run,
}

const (
	enginePath = "relser/internal/engine"
	recordPath = "relser/internal/record"
	replayPath = "relser/internal/replay"
)

// decisionStages are the engine.Core methods whose control flow decides
// transaction outcomes; everything they reach must be pinned by the
// run seed.
var decisionStages = map[string]bool{
	"Admit": true, "Check": true, "Step": true, "Publish": true,
	"Acknowledge": true, "AbortCascade": true, "AbortAll": true,
	"Restart": true,
}

// wallClock lists time-package functions whose results depend on when
// the program runs.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// globalRand lists math/rand (and v2) package-level functions backed by
// the shared, unseeded-by-default source. rand.New/NewSource are fine:
// they construct the seeded instances the engine is supposed to use.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

// finding is one precomputed diagnostic, attached to the package whose
// pass should report it.
type finding struct {
	pkgPath string
	pos     token.Pos
	message string
}

func run(pass *analysis.Pass) error {
	if pass.Graph == nil {
		return fmt.Errorf("detlint: no call graph on pass")
	}
	findings := callgraph.Memo(pass.Graph, "detlint.findings", func() []finding {
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

// compute derives the program-wide findings once per graph.
func compute(g *callgraph.Graph) []finding {
	roots := make(map[callgraph.FuncID]bool)
	for id, n := range g.Nodes {
		if isRoot(n) {
			roots[id] = true
		}
	}
	var out []finding
	reach := g.ReachableFrom(roots)
	ids := make([]callgraph.FuncID, 0, len(reach))
	for id := range reach {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		chain := reach[id]
		for _, e := range n.Calls {
			if msg, bad := nondetCall(e.Callee); bad {
				out = append(out, finding{
					pkgPath: n.Pkg.PkgPath, pos: e.Pos,
					message: fmt.Sprintf("%s in deterministic section (reachable via %s): %s",
						callgraph.Chain{e.Callee}.String(), chain, msg),
				})
			}
		}
		if roots[id] {
			out = append(out, mapRanges(n)...)
		}
	}
	return out
}

// isRoot classifies a node as a deterministic root.
func isRoot(n *callgraph.Node) bool {
	if _, ok := analysis.Directive(n.Doc(), "deterministic"); ok {
		return true
	}
	switch n.Pkg.PkgPath {
	case recordPath, replayPath:
		return n.Decl != nil
	case enginePath:
		return n.Decl != nil && n.Decl.Recv != nil &&
			recvTypeName(n) == "Core" && decisionStages[n.Decl.Name.Name]
	}
	return false
}

func recvTypeName(n *callgraph.Node) string {
	id := string(n.ID)
	open := strings.IndexByte(id, '(')
	close := strings.IndexByte(id, ')')
	if open < 0 || close < open {
		return ""
	}
	return strings.TrimPrefix(id[open+1:close], "*")
}

// nondetCall classifies a callee identity as a nondeterminism source.
func nondetCall(id callgraph.FuncID) (string, bool) {
	s := string(id)
	if strings.ContainsRune(s, '(') {
		return "", false // methods: seeded *rand.Rand instances etc.
	}
	dot := strings.LastIndexByte(s, '.')
	if dot < 0 {
		return "", false
	}
	pkg, name := s[:dot], s[dot+1:]
	switch pkg {
	case "time":
		if wallClock[name] {
			return "wall-clock reads change engine decisions between record and replay; derive times from the run's logical clock or seed", true
		}
	case "math/rand", "math/rand/v2":
		if globalRand[name] {
			return "the global rand source is not pinned by the run seed; draw from a rand.Rand seeded from the config", true
		}
	}
	return "", false
}

// mapRanges flags `range` statements over map-typed expressions
// directly inside a root function.
func mapRanges(n *callgraph.Node) []finding {
	var out []finding
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false // literals are their own nodes, not roots
		}
		rng, ok := node.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := n.Pkg.TypesInfo.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		out = append(out, finding{
			pkgPath: n.Pkg.PkgPath, pos: rng.Pos(),
			message: fmt.Sprintf(
				"map iteration in deterministic root %s: range order varies between runs; iterate a sorted copy, or document order-insensitivity with //rsvet:allow detlint",
				n.Name()),
		})
		return true
	})
	return out
}
