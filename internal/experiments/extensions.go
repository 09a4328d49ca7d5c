package experiments

import (
	"fmt"

	"relser/internal/chopping"
	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// runE12 reproduces the §4 chopping comparison [SSV92]: the SC-graph
// test on the canonical correct and incorrect choppings, the theorem
// that correct choppings only admit serializable piece-atomic
// executions (checked exhaustively), and the embedding of chopping
// specifications into relative atomicity.
func runE12(Options) (*Report, error) {
	rep := &Report{}

	// Canonical correct chopping: T1 split between its x-phase and
	// y-phase; T2 touches only x, T3 only y.
	ts := core.MustTxnSet(
		core.T(1, core.R("x"), core.W("x"), core.R("y"), core.W("y")),
		core.T(2, core.R("x"), core.W("x")),
		core.T(3, core.R("y"), core.W("y")),
	)
	good, err := chopping.New(ts, map[core.TxnID][]int{1: {2, 2}})
	if err != nil {
		return nil, err
	}
	gGood := chopping.BuildSCGraph(good)

	// Incorrect chopping: T2 now spans both of T1's pieces.
	tsBad := core.MustTxnSet(
		core.T(1, core.R("x"), core.W("x"), core.R("y"), core.W("y")),
		core.T(2, core.W("x"), core.W("y")),
	)
	bad, err := chopping.New(tsBad, map[core.TxnID][]int{1: {2, 2}})
	if err != nil {
		return nil, err
	}
	gBad := chopping.BuildSCGraph(bad)

	tb := metrics.NewTable("SC-graph correctness test",
		"chopping", "pieces", "edges", "correct", "offending pieces")
	off := func(ps []chopping.Piece) string {
		if ps == nil {
			return "-"
		}
		out := ""
		for i, p := range ps {
			if i > 0 {
				out += " "
			}
			out += p.String()
		}
		return out
	}
	tb.AddRow("T1=[rx wx][ry wy]; T2 on x; T3 on y", len(good.Pieces()), gGood.NumEdges(), boolMark(gGood.Correct()), off(gGood.OffendingComponent()))
	tb.AddRow("T1=[rx wx][ry wy]; T2 on x AND y", len(bad.Pieces()), gBad.NumEdges(), boolMark(gBad.Correct()), off(gBad.OffendingComponent()))
	rep.Tables = append(rep.Tables, tb)

	rep.AddClaim(gGood.Correct(), "the canonical [SSV92] chopping has no SC-cycle (correct)")
	rep.AddClaim(!gBad.Correct(), "a transaction spanning both pieces creates an SC-cycle (incorrect)")

	// The [SSV92] theorem through the paper's machinery: piece-atomic
	// executions of the correct chopping are conflict serializable;
	// the incorrect chopping admits a non-serializable one.
	spGood, err := good.ToSpec()
	if err != nil {
		return nil, err
	}
	goodTotal, goodSerializable := 0, 0
	enumerate.Schedules(ts, func(s *core.Schedule) bool {
		if ok, _ := core.IsRelativelyAtomic(s, spGood); !ok {
			return true
		}
		goodTotal++
		if core.IsConflictSerializable(s) {
			goodSerializable++
		}
		return true
	})
	spBad, err := bad.ToSpec()
	if err != nil {
		return nil, err
	}
	badTotal, badSerializable := 0, 0
	enumerate.Schedules(tsBad, func(s *core.Schedule) bool {
		if ok, _ := core.IsRelativelyAtomic(s, spBad); !ok {
			return true
		}
		badTotal++
		if core.IsConflictSerializable(s) {
			badSerializable++
		}
		return true
	})
	tb2 := metrics.NewTable("Piece-atomic executions (exhaustive)",
		"chopping", "piece-atomic schedules", "conflict serializable")
	tb2.AddRow("correct", goodTotal, goodSerializable)
	tb2.AddRow("incorrect", badTotal, badSerializable)
	rep.Tables = append(rep.Tables, tb2)
	rep.AddClaim(goodTotal > 0 && goodSerializable == goodTotal,
		"every piece-atomic execution of the correct chopping is conflict serializable ([SSV92]'s theorem, %d/%d)", goodSerializable, goodTotal)
	rep.AddClaim(badSerializable < badTotal,
		"the incorrect chopping admits non-serializable piece-atomic executions (%d of %d)", badTotal-badSerializable, badTotal)
	rep.AddNote("chopping specs embed into relative atomicity via Chopping.ToSpec: each piece becomes an atomic unit relative to every other transaction — the §4 bridge")
	return rep, nil
}

// runE13 exercises the concurrent goroutine runtime: the banking and
// long-lived workloads under every protocol on real goroutines, with
// every committed schedule certified by the offline RSG test and every
// data invariant checked.
func runE13(opts Options) (*Report, error) {
	rep := &Report{}
	trials := 3
	if opts.Quick {
		trials = 1
	}
	tb := metrics.NewTable("Concurrent runtime certification",
		"workload", "protocol", "runs", "committed", "aborts", "all verified", "invariants ok", "recoverable")
	type mk struct {
		name string
		make func(seed int64) (*workload.Workload, error)
	}
	mks := []mk{
		{"banking", func(seed int64) (*workload.Workload, error) {
			return workload.Banking(workload.DefaultBankingConfig(), seed)
		}},
		{"longlived", func(seed int64) (*workload.Workload, error) {
			return workload.LongLived(workload.DefaultLongLivedConfig(), seed)
		}},
	}
	for _, m := range mks {
		for _, proto := range []string{"s2pl", "sgt", "rsgt", "altruistic"} {
			committed, aborts := 0, 0
			verified, invariants, recoverable := true, true, true
			for trial := 0; trial < trials; trial++ {
				w, err := m.make(opts.Seed + int64(trial))
				if err != nil {
					return nil, err
				}
				var p sched.Protocol
				switch proto {
				case "s2pl":
					p = sched.NewS2PLSharded(opts.Shards)
				case "sgt":
					p = sched.NewSGT()
				case "rsgt":
					p = sched.NewRSGT(w.Oracle)
				case "altruistic":
					p = sched.NewAltruistic(w.Oracle)
				}
				store := storage.NewStore()
				store.Load(w.Initial)
				r, err := txn.NewConcurrent(txn.Config{
					Protocol:  p,
					Programs:  w.Programs,
					Oracle:    w.Oracle,
					Store:     store,
					Semantics: w.Semantics,
					MPL:       6,
					Shards:    opts.Shards,
				})
				if err != nil {
					return nil, err
				}
				res, err := r.Run()
				if err != nil {
					return nil, fmt.Errorf("%s/%s trial %d: %v", m.name, proto, trial, err)
				}
				committed += res.Committed
				aborts += res.Aborts
				if err := res.Verify(); err != nil {
					verified = false
				}
				if w.Invariant != nil {
					if err := w.Invariant(store.Snapshot()); err != nil {
						invariants = false
					}
				}
				if props, perr := res.RecoveryProperties(); perr != nil || !props.Recoverable {
					recoverable = false
				}
			}
			tb.AddRow(m.name, proto, trials, committed, aborts, boolMark(verified), boolMark(invariants), boolMark(recoverable))
			rep.AddClaim(verified, "%s under %s: every concurrent committed schedule is relatively serializable", m.name, proto)
			rep.AddClaim(invariants, "%s under %s: data invariants hold after concurrent runs", m.name, proto)
			rep.AddClaim(recoverable, "%s under %s: committed executions are recoverable (commit order follows dirty reads-from)", m.name, proto)
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.AddNote("goroutine interleavings are nondeterministic; the claims are outcome properties, and `go test -race ./internal/txn` covers memory safety")
	return rep, nil
}
