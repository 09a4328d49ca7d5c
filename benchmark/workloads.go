package main

import (
	"runtime"
	"strconv"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/workload"
)

// par is the worker count of the concurrent driver's CPU-bound
// workloads, and the GOMAXPROCS the whole benchmark runs under.
var par = min(runtime.NumCPU(), 4)

const driverShards = 8

// spec is one pinned workload: which programs, and which slice of the
// stack runs them. Load is a closed loop generated in-process: mpl
// logical clients, each starting its next program only when the
// previous one committed.
type spec struct {
	name string
	why  string
	// gen builds the programs from the seed at a given size.
	gen func(seed int64, n int) (*workload.Workload, error)
	// size is the timed size; gate the size of the Theorem 1 gate run;
	// quick the size under -quick. All count programs, except on
	// bank-stack where they count customers (audits scale along).
	size, gate, quick int

	protocol   string // "rsgt" or "s2pl"
	concurrent bool
	mpl        int  // clients; 0 means par
	wal        bool // 1-lane segmented log on a 1 ms simulated fsync
	plane      bool // sampled observability plane attached
	offline    bool // no engine run is timed: Theorem 1 test over a committed schedule
	// planeless names the twin workload without the plane; the traced
	// run times it too, for obs.tps_ratio_sampled.
	planeless string
}

func (s *spec) clients() int {
	if s.mpl > 0 {
		return s.mpl
	}
	return par
}

// serial reports whether runs are deterministic, so that schedule
// digests and counts must repeat exactly across reps.
func (s *spec) serial() bool { return !s.concurrent }

// mix is the E15 generator: 16 uniform operations over 512 objects, a
// quarter of them writes, no hot set.
func mix(granularity int) func(int64, int) (*workload.Workload, error) {
	return func(seed int64, n int) (*workload.Workload, error) {
		return workload.Synthetic(workload.SyntheticConfig{
			Objects: 512, Programs: n, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: granularity,
		}, seed)
	}
}

// bank is the paper's banking scenario with crossing credit audits;
// n customers bring n/8 credit audits and n/64 bank audits.
func bank(seed int64, n int) (*workload.Workload, error) {
	return workload.Banking(workload.BankingConfig{
		Families: 16, AccountsPerFamily: 3, Customers: n,
		CreditAudits: n / 8, FamiliesPerAudit: 2, BankAudits: n / 64,
		CrossingAudits: true, InitialBalance: 100,
	}, seed)
}

// chain is the E20 soak shape: program i reads x(i-1) and writes x(i)
// over 257 objects. The programs do not depend on the seed; the
// driver's interleaving does.
func chain(_ int64, n int) (*workload.Workload, error) {
	obj := func(i int) string { return "x" + strconv.Itoa(i%257) }
	w := &workload.Workload{Name: "chain", Oracle: sched.AbsoluteOracle{}, Initial: map[string]storage.Value{}}
	for i := 1; i <= n; i++ {
		w.Programs = append(w.Programs, core.T(core.TxnID(i), core.R(obj(i-1)), core.W(obj(i))))
	}
	for i := 0; i < 257; i++ {
		w.Initial[obj(i)] = 0
	}
	return w, nil
}

// workloads is the fixed ladder. Sizes are frozen here; a change that
// claims a gain may not edit them (see README.md).
var workloads = []*spec{
	{
		name: "mix-rel", gen: mix(4), size: 256, gate: 96, quick: 64,
		protocol: "rsgt", mpl: 8,
		why: "relative atomicity (units of 4 ops) under RSGT on the serial driver: CPU-bound in sched+graph, no WAL, no plane",
	},
	{
		name: "mix-rel-obs", gen: mix(4), size: 256, gate: 96, quick: 64,
		protocol: "rsgt", mpl: 8, plane: true, planeless: "mix-rel",
		why: "mix-rel with the sampled ops plane attached, which forces RSGT's slow path: an observability change shows here only",
	},
	{
		name: "mix-par-rsgt", gen: mix(0), size: 256, gate: 96, quick: 64,
		protocol: "rsgt", concurrent: true,
		why: "absolute mix under RSGT on the concurrent driver: every Request under one global mutex from par goroutines",
	},
	{
		name: "mix-par-s2pl", gen: mix(0), size: 4096, gate: 96, quick: 256,
		protocol: "s2pl", concurrent: true,
		why: "absolute mix under striped S2PL on 8 shards: txn/engine/store dominate and no RSG line runs, so an RSGT change predicts no change",
	},
	{
		name: "bank-stack", gen: bank, size: 256, gate: 80, quick: 64,
		protocol: "rsgt", concurrent: true, mpl: 8, wal: true, plane: true,
		why: "the whole stack a user runs: banking under RSGT, segmented WAL with 1 ms simulated fsync, sampled plane, then recovery; WAL-bound",
	},
	{
		name: "chain-soak", gen: chain, size: 12500, gate: 96, quick: 2000,
		protocol: "rsgt", mpl: 8,
		why: "E20 steady state through the engine: two-op chained programs, all fast path, a retirement epoch every few dozen commits",
	},
	{
		name: "certify-offline", gen: mix(4), size: 48, gate: 32, quick: 24,
		protocol: "rsgt", mpl: 8, offline: true,
		why: "the paper's Theorem 1 test over a committed schedule (depends-on, RSG, acyclicity): only core+graph(dense) run, no engine",
	},
}

func findWorkload(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}
