// Package registrydrift is a string-typo detector for the three
// name registries the runtime keys its behavior on:
//
//   - fault.Point literals must name a registered injection point
//     (fault.Points()); fault.ParseSpec / MustParseSpec string
//     arguments must additionally parse as a full spec;
//   - trace.Kind literals must name a registered event kind
//     (trace.Kinds());
//   - metric keys passed literally to Registry.Counter / Gauge /
//     Histogram must be canonical (metrics.IsKnownKey) or carry a
//     registered dynamic prefix;
//   - record.Stage literals must name a registered recording stage
//     (record.Stages());
//   - obs.SpanStatus literals must name a registered terminal status
//     (obs.SpanStatuses()).
//
// A typo in any of these strings is silent at run time — the injector
// never fires, the trace filter matches nothing, the time series stays
// empty — so the analyzer turns it into a build-gate failure. The
// check is type-directed: any string literal whose type-checked type
// is fault.Point or trace.Kind is validated, wherever it appears
// (conversions, assignments, composite literals, comparisons, call
// arguments).
package registrydrift

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"relser/internal/analysis"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/record"
	"relser/internal/trace"
)

// Analyzer is the registry-drift check.
var Analyzer = &analysis.Analyzer{
	Name: "registrydrift",
	Doc:  "check fault.Point, trace.Kind, record.Stage, obs.SpanStatus and metrics-key string literals against their registries",
	Run:  run,
}

const (
	faultPath   = "relser/internal/fault"
	tracePath   = "relser/internal/trace"
	metricsPath = "relser/internal/metrics"
	recordPath  = "relser/internal/record"
	obsPath     = "relser/internal/obs"
)

var (
	knownPoints = func() map[string]bool {
		m := map[string]bool{}
		for _, p := range fault.Points() {
			m[string(p)] = true
		}
		return m
	}()
	knownKinds = func() map[string]bool {
		m := map[string]bool{}
		for _, k := range trace.Kinds() {
			m[string(k)] = true
		}
		return m
	}()
	knownStages = func() map[string]bool {
		m := map[string]bool{}
		for _, s := range record.Stages() {
			m[string(s)] = true
		}
		return m
	}()
	knownStatuses = func() map[string]bool {
		m := map[string]bool{}
		for _, s := range obs.SpanStatuses() {
			m[string(s)] = true
		}
		return m
	}()
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				checkTypedLiteral(pass, n)
			case *ast.CallExpr:
				checkSpecCall(pass, n)
				checkMetricsCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkTypedLiteral validates a string literal whose type resolved to
// fault.Point or trace.Kind. The type checker records the contextual
// type of untyped constants, so this covers conversions, assignments,
// call arguments, composite literals, map keys and comparisons alike.
func checkTypedLiteral(pass *analysis.Pass, lit *ast.BasicLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	val := constant.StringVal(tv.Value)
	switch {
	case named.Obj().Pkg().Path() == faultPath && named.Obj().Name() == "Point":
		if !knownPoints[val] {
			pass.Reportf(lit.Pos(),
				"fault point %q is not in the fault registry (known: %s)",
				val, joinPoints())
		}
	case named.Obj().Pkg().Path() == tracePath && named.Obj().Name() == "Kind":
		if !knownKinds[val] {
			pass.Reportf(lit.Pos(), "trace kind %q is not a registered event kind", val)
		}
	case named.Obj().Pkg().Path() == recordPath && named.Obj().Name() == "Stage":
		if !knownStages[val] {
			pass.Reportf(lit.Pos(), "recording stage %q is not a registered stage (record.Stages)", val)
		}
	case named.Obj().Pkg().Path() == obsPath && named.Obj().Name() == "SpanStatus":
		if !knownStatuses[val] {
			pass.Reportf(lit.Pos(), "span status %q is not a registered terminal status (obs.SpanStatuses)", val)
		}
	}
}

// checkSpecCall validates literal arguments of fault.ParseSpec and
// fault.MustParseSpec by actually parsing them.
func checkSpecCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name != "ParseSpec" && sel.Sel.Name != "MustParseSpec" {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != faultPath {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	val, ok := stringConst(pass, call.Args[0])
	if !ok {
		return
	}
	if _, err := fault.ParseSpec(val); err != nil {
		pass.Reportf(call.Args[0].Pos(), "fault spec %q does not parse: %v", val, err)
	}
}

// checkMetricsCall validates literal keys passed to the metrics
// registry's get-or-create constructors.
func checkMetricsCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != metricsPath {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || len(call.Args) != 1 {
		return
	}
	val, ok := stringConst(pass, call.Args[0])
	if !ok {
		return
	}
	if !metrics.IsKnownKey(val) {
		pass.Reportf(call.Args[0].Pos(),
			"metric key %q is not in the canonical key registry (internal/metrics/keys.go)", val)
	}
}

func stringConst(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func joinPoints() string {
	names := make([]string, 0, len(knownPoints))
	for _, p := range fault.Points() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}
