package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"relser/internal/metrics"
	"relser/internal/sched"
)

var quickOpts = options{seed: 1, seconds: 0.05, quick: true}

// TestManifestMatches keeps BENCHMARK.json and the program in step: the
// same workloads, and the same metrics with the same units, directions
// and bounds.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if s := workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: manifest %q / %q, program %q / %q", i, w.Name, w.Why, s.name, s.why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, program has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("manifest outside the contract's limits")
	}
}

// TestSuiteSmoke runs the whole suite at -quick sizes and checks that
// every named metric is reported with its unit on every workload, that
// nothing failed, and that the stage spans add up to the run.
func TestSuiteSmoke(t *testing.T) {
	art := runSuite(quickOpts)
	if art.Claim != nil {
		t.Errorf("artifact carries a claim: %v", art.Claim)
	}
	if art.Env.NProc == 0 || art.Env.GoVersion == "" || art.Env.Fsync == "" || art.Env.SuiteWallS <= 0 || art.Env.FsyncObservedMs <= 0 {
		t.Errorf("incomplete environment stamp: %+v", art.Env)
	}
	if len(art.Workloads) != len(workloads) {
		t.Fatalf("suite reported %d of %d workloads", len(art.Workloads), len(workloads))
	}
	for _, w := range art.Workloads {
		if len(w.Failures) > 0 {
			t.Errorf("%s: %v", w.Name, w.Failures)
			continue
		}
		for _, d := range endToEnd {
			if v, ok := w.EndToEnd[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.Name, d.Name, v, d.Unit)
			}
		}
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v, want a value in %s", w.Name, d.Name, v, d.Unit)
			}
		}
		if w.PerLayer["trace.overhead_ratio"].Value <= 0 {
			t.Errorf("%s: trace.overhead_ratio missing", w.Name)
		}
		// The parts add up to the whole: what the stage spans do not
		// cover is the driver's own time, by definition, and where the
		// protocol does the work the spans cover nearly everything. (On
		// chain-soak the serial driver itself takes ~40 %: see README.)
		c, d := w.PerLayer["trace.coverage"].Value, w.PerLayer["txn.driver_self_share"].Value
		if s := findWorkload(w.Name); !s.offline && math.Abs(c+d-1) > 1e-9 {
			t.Errorf("%s: trace.coverage %.3f + txn.driver_self_share %.3f != 1", w.Name, c, d)
		}
		if strings.HasPrefix(w.Name, "mix-rel") && c < 0.9 {
			t.Errorf("%s: trace.coverage %.3f, want >= 0.9: the stage spans do not add up to the run", w.Name, c)
		}
	}
	var buf bytes.Buffer
	art.print(&buf)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(buf.String(), d.Name) {
			t.Errorf("printed report lacks %s", d.Name)
		}
	}
	if differ := printComparison(&buf, art, art, true); differ != 0 {
		t.Errorf("an artifact differs from itself in %d metrics", differ)
	}
}

// TestDecoratorsTransparent proves the timing decorators and hooks do
// not change which code runs: on every serial workload the committed
// schedule, the restarts and the retirement statistics are identical
// with and without them, and the optional protocol interfaces the
// engine type-asserts are exposed exactly when the wrapped protocol has
// them.
func TestDecoratorsTransparent(t *testing.T) {
	for _, s := range workloads {
		if s.offline {
			continue
		}
		plain := runRep(s, 1, 1, s.quick, false, false)
		timed := runRep(s, 1, 1, s.quick, true, false)
		for _, r := range []*rep{plain, timed} {
			if len(r.failures) > 0 {
				t.Fatalf("%s: %v", s.name, r.failures)
			}
		}
		if plain.shardSafe != timed.shardSafe || plain.shardSafe != (s.protocol == "s2pl") {
			t.Errorf("%s: IsShardSafe plain=%v decorated=%v", s.name, plain.shardSafe, timed.shardSafe)
		}
		if s.serial() && (plain.digest != timed.digest || plain.restarts != timed.restarts || plain.retire != timed.retire) {
			t.Errorf("%s: decorated run diverged: digest %x/%x restarts %d/%d retire %+v/%+v",
				s.name, plain.digest, timed.digest, plain.restarts, timed.restarts, plain.retire, timed.retire)
		}
	}
	tr := newTracer(true, 1)
	if _, ok := wrapProtocol(sched.NewS2PLSharded(driverShards), tr).(sched.Retirer); ok {
		t.Error("decorated S2PL claims to be a sched.Retirer")
	}
	if _, ok := wrapProtocol(sched.NewRSGT(sched.AbsoluteOracle{}), tr).(sched.Retirer); !ok {
		t.Error("decorated RSGT hides sched.Retirer")
	}
	var sink any = &timedSink{}
	if _, ok := sink.(interface{ SetMetrics(*metrics.Registry) }); !ok {
		t.Error("decorated WAL sink hides SetMetrics")
	}
}

// TestCompareVerdicts checks the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	mk := func(tps, spread float64) *artifact {
		r := workloadReport{Name: "w", EndToEnd: map[string]value{}, Spread: map[string]float64{"commit_tps": spread}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = value{1, d.Unit}
		}
		r.EndToEnd["commit_tps"] = value{tps, "txn/s"}
		return &artifact{Workloads: []workloadReport{r}}
	}
	var buf bytes.Buffer
	if n := printComparison(&buf, mk(100, 0), mk(60, 0), false); n != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("a 40%% throughput loss: %d metrics worse\n%s", n, &buf)
	}
	buf.Reset()
	if n := printComparison(&buf, mk(100, 0), mk(140, 0), false); n != 0 {
		t.Errorf("a gain counted as worse\n%s", &buf)
	}
	if n := printComparison(&buf, mk(100, 0), mk(140, 0), true); n != 1 {
		t.Errorf("-aa must count a 40%% difference in either direction\n%s", &buf)
	}
	buf.Reset()
	if n := printComparison(&buf, mk(100, 0.5), mk(99, 0), false); n != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("an uncertainty above a third of the bound must read unresolved\n%s", &buf)
	}
}
