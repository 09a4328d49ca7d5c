package relser_test

// Benchmark harness: one benchmark per experiment of the reproduction
// (E1-E14, DESIGN.md §4), plus micro-benchmarks for the paper's core
// machinery (depends-on, RSG construction, the class tests, the
// relatively-consistent search, and the online protocols).
//
// The per-experiment benchmarks execute the same code paths as
// cmd/rsbench and the figures in EXPERIMENTS.md; they time a full
// experiment run at quick sizes so `go test -bench=.` regenerates
// every reported quantity.

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"

	"relser"
	"relser/internal/consistent"
	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/experiments"
	"relser/internal/metrics"
	"relser/internal/paperfig"
	"relser/internal/sched"
	"relser/internal/trace"
	"relser/internal/workload"
)

// benchExperiment runs a whole experiment per iteration and fails the
// benchmark if any mechanically checked paper claim does not hold.
func benchExperiment(b *testing.B, id string, quick bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Options{Quick: quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass() {
			for _, c := range rep.Claims {
				if !c.Pass {
					b.Fatalf("%s: claim failed: %s", id, c.Text)
				}
			}
		}
	}
}

// --- One benchmark per experiment -----------------------------------

func BenchmarkE1Fig1Classification(b *testing.B)  { benchExperiment(b, "E1", false) }
func BenchmarkE2Fig2DependsAblation(b *testing.B) { benchExperiment(b, "E2", false) }
func BenchmarkE3Fig3ExactRSG(b *testing.B)        { benchExperiment(b, "E3", false) }
func BenchmarkE4Fig4Separation(b *testing.B)      { benchExperiment(b, "E4", false) }
func BenchmarkE5Fig5Census(b *testing.B)          { benchExperiment(b, "E5", true) }
func BenchmarkE6RSGScaling(b *testing.B)          { benchExperiment(b, "E6", true) }
func BenchmarkE7RCvsRSG(b *testing.B)             { benchExperiment(b, "E7", true) }
func BenchmarkE8Protocols(b *testing.B)           { benchExperiment(b, "E8", true) }
func BenchmarkE9Granularity(b *testing.B)         { benchExperiment(b, "E9", true) }
func BenchmarkE10Lemma1(b *testing.B)             { benchExperiment(b, "E10", true) }
func BenchmarkE11RelatedWork(b *testing.B)        { benchExperiment(b, "E11", false) }
func BenchmarkE12Chopping(b *testing.B)           { benchExperiment(b, "E12", false) }
func BenchmarkE13Concurrent(b *testing.B)         { benchExperiment(b, "E13", true) }
func BenchmarkE14Semantics(b *testing.B)          { benchExperiment(b, "E14", false) }

// --- Core machinery micro-benchmarks --------------------------------

func fig1Fixture(b *testing.B) (*core.Schedule, *core.Spec) {
	b.Helper()
	inst := paperfig.Figure1()
	return inst.Schedules["Srs"], inst.Spec
}

func BenchmarkComputeDependsFig1(b *testing.B) {
	s, _ := fig1Fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ComputeDepends(s)
	}
}

func BenchmarkBuildRSGFig1(b *testing.B) {
	s, sp := fig1Fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.BuildRSG(s, sp)
	}
}

func BenchmarkIsRelativelySerialFig1(b *testing.B) {
	s, sp := fig1Fixture(b)
	for i := 0; i < b.N; i++ {
		if ok, _ := core.IsRelativelySerial(s, sp); !ok {
			b.Fatal("Srs must be relatively serial")
		}
	}
}

func BenchmarkIsRelativelySerializableSizes(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			s, sp := syntheticSchedule(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				relser.IsRelativelySerializable(s, sp)
			}
		})
	}
}

func syntheticSchedule(b *testing.B, totalOps int) (*core.Schedule, *core.Spec) {
	b.Helper()
	cfg := workload.SyntheticConfig{
		Objects:     totalOps / 4,
		Programs:    totalOps / 8,
		OpsPerTxn:   8,
		WriteRatio:  0.3,
		Granularity: 2,
	}
	w, err := workload.Synthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := core.NewTxnSet(w.Programs...)
	if err != nil {
		b.Fatal(err)
	}
	// Round-robin interleaving, deterministic and fully mixed.
	cursors := make([]int, ts.NumTxns())
	txns := ts.Txns()
	ops := make([]core.Op, 0, ts.NumOps())
	for len(ops) < ts.NumOps() {
		for k, tx := range txns {
			if cursors[k] < tx.Len() {
				ops = append(ops, tx.Op(cursors[k]))
				cursors[k]++
			}
		}
	}
	s := core.MustSchedule(ts, ops)
	sp, err := core.SpecFromCuts(ts, w.Oracle.Cuts)
	if err != nil {
		b.Fatal(err)
	}
	return s, sp
}

func BenchmarkConflictSerializableSizes(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			s, _ := syntheticSchedule(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.IsConflictSerializable(s)
			}
		})
	}
}

func BenchmarkRelativelyConsistentFig4(b *testing.B) {
	inst := paperfig.Figure4()
	s := inst.Schedules["S"]
	for i := 0; i < b.N; i++ {
		if consistent.IsRelativelyConsistent(s, inst.Spec).Consistent {
			b.Fatal("Figure 4's S must not be relatively consistent")
		}
	}
}

func BenchmarkCensusFig2(b *testing.B) {
	inst := paperfig.Figure2()
	for i := 0; i < b.N; i++ {
		c := enumerate.TakeCensus(inst.Set, inst.Spec, true)
		if c.ContainmentViolations != 0 {
			b.Fatal("containment violation")
		}
	}
}

// --- Online protocol micro-benchmarks --------------------------------

func benchProtocol(b *testing.B, name string) {
	cfg := workload.DefaultBankingConfig()
	cfg.Customers = 16
	cfg.CrossingAudits = true
	for i := 0; i < b.N; i++ {
		w, err := workload.Banking(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		var p sched.Protocol
		switch name {
		case "s2pl":
			p = sched.NewS2PL()
		case "sgt":
			p = sched.NewSGT()
		case "rsgt":
			p = sched.NewRSGT(w.Oracle)
		case "altruistic":
			p = sched.NewAltruistic(w.Oracle)
		case "ral":
			p = sched.NewRAL(w.Oracle)
		case "to":
			p = sched.NewTOSharded(1)
		}
		res, err := w.Run(p, 1, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed != len(w.Programs) {
			b.Fatal("incomplete run")
		}
	}
}

func BenchmarkProtocolS2PLBanking(b *testing.B)       { benchProtocol(b, "s2pl") }
func BenchmarkProtocolSGTBanking(b *testing.B)        { benchProtocol(b, "sgt") }
func BenchmarkProtocolRSGTBanking(b *testing.B)       { benchProtocol(b, "rsgt") }
func BenchmarkProtocolAltruisticBanking(b *testing.B) { benchProtocol(b, "altruistic") }
func BenchmarkProtocolTOBanking(b *testing.B)         { benchProtocol(b, "to") }
func BenchmarkProtocolRALBanking(b *testing.B)        { benchProtocol(b, "ral") }

func BenchmarkRuntimeLongLivedRSGT(b *testing.B) {
	cfg := workload.DefaultLongLivedConfig()
	for i := 0; i < b.N; i++ {
		w, err := workload.LongLived(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := w.Run(sched.NewRSGT(w.Oracle), 1, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyCommittedSchedule(b *testing.B) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := w.Run(sched.NewRSGT(w.Oracle), 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRSGTRequestPath drives the RSGT Request hot path directly:
// two concurrent transactions interleaving grants on disjoint objects,
// re-admitted every iteration. Comparing the TracerOff and TracerOn
// variants (allocations are reported) shows what tracing costs when
// enabled — and that the disabled guard adds none.
func benchRSGTRequestPath(b *testing.B, tr *trace.Tracer) {
	progs := []*core.Transaction{
		core.T(1, core.R("a"), core.W("b"), core.R("c"), core.W("d")),
		core.T(2, core.R("e"), core.W("f"), core.R("g"), core.W("h")),
	}
	p := sched.NewRSGT(sched.AbsoluteOracle{})
	sched.Attach(p, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i) * 2
		for j, prog := range progs {
			p.Begin(base+int64(j)+1, prog)
		}
		for seq := 0; seq < progs[0].Len(); seq++ {
			for j, prog := range progs {
				req := sched.OpRequest{Instance: base + int64(j) + 1, Program: prog, Seq: seq, Op: prog.Op(seq)}
				if d := p.Request(req); d != sched.Grant {
					b.Fatalf("want grant, got %v", d)
				}
			}
		}
		for j := range progs {
			p.Commit(base + int64(j) + 1)
		}
	}
}

// jsonDiscard encodes every event and drops the bytes: the per-event
// cost of writing a JSONL trace, without the file. The encoder is not
// safe for concurrent use, so Emit takes its own lock.
type jsonDiscard struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (s *jsonDiscard) Emit(ev trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(ev)
}

func BenchmarkRSGTRequestTracerOff(b *testing.B) { benchRSGTRequestPath(b, nil) }

func BenchmarkRSGTRequestTracerOn(b *testing.B) {
	benchRSGTRequestPath(b, trace.New(&jsonDiscard{enc: json.NewEncoder(io.Discard)}))
}

// BenchmarkRuntimeTracedBanking measures whole-run overhead of full
// tracing plus metrics against BenchmarkProtocolRSGTBanking above.
func BenchmarkRuntimeTracedBanking(b *testing.B) {
	w, err := workload.Banking(workload.DefaultBankingConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
			Seed:    1,
			MPL:     8,
			Tracer:  trace.New(&jsonDiscard{enc: json.NewEncoder(io.Discard)}),
			Metrics: metrics.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed != len(w.Programs) {
			b.Fatal("incomplete run")
		}
	}
}
