package txn_test

// Contention-aware benchmarks for the concurrent scheduler hot path:
// shard counts crossed with goroutine counts under low- and
// high-conflict synthetic workloads, plus the striped lock-table
// admission path on its own. These are the benchmarks the CI perf gate
// compares with benchstat across branches.

import (
	"fmt"
	"testing"
	"time"

	"relser/internal/core"
	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// benchPrograms builds a synthetic program set once per configuration.
func benchPrograms(b *testing.B, cfg workload.SyntheticConfig) *workload.Workload {
	b.Helper()
	w, err := workload.Synthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchConcurrent(b *testing.B, w *workload.Workload, shards, mpl int) {
	b.Helper()
	ops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := w.RunWith(sched.NewS2PLSharded(shards), workload.RunOptions{
			Seed:       1,
			MPL:        mpl,
			Shards:     shards,
			Concurrent: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.OpsExecuted
	}
	b.StopTimer()
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkConcurrentLowConflict(b *testing.B) {
	w := benchPrograms(b, workload.SyntheticConfig{
		Objects: 512, Programs: 128, OpsPerTxn: 8, WriteRatio: 0.25,
	})
	for _, shards := range []int{1, 8} {
		for _, mpl := range []int{4, 16} {
			b.Run(fmt.Sprintf("shards=%d/mpl=%d", shards, mpl), func(b *testing.B) {
				benchConcurrent(b, w, shards, mpl)
			})
		}
	}
}

func BenchmarkConcurrentHighConflict(b *testing.B) {
	// One hot object in every program: all conflicts land on a single
	// shard, stressing the blocking, wakeup and victimization paths.
	w := benchPrograms(b, workload.SyntheticConfig{
		Objects: 64, Programs: 128, OpsPerTxn: 8, WriteRatio: 0.5,
		HotFraction: 0.25, HotObjects: 1,
	})
	for _, shards := range []int{1, 8} {
		for _, mpl := range []int{4, 16} {
			b.Run(fmt.Sprintf("shards=%d/mpl=%d", shards, mpl), func(b *testing.B) {
				benchConcurrent(b, w, shards, mpl)
			})
		}
	}
}

func BenchmarkS2PLAdmission(b *testing.B) {
	// The protocol-level hot path alone: sequential admission of
	// non-conflicting requests through the striped lock table, no
	// driver, no goroutines.
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const nTxn = 64
			progs := make([]*core.Transaction, nTxn)
			for i := range progs {
				obj := fmt.Sprintf("o%d", i)
				progs[i] = core.T(core.TxnID(i+1), core.R(obj), core.W(obj))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := sched.NewS2PLSharded(shards)
				for k, tx := range progs {
					id := int64(k + 1)
					p.Begin(id, tx)
					for seq := 0; seq < tx.Len(); seq++ {
						req := sched.OpRequest{Instance: id, Program: tx, Seq: seq, Op: tx.Op(seq)}
						if d := p.Request(req); d != sched.Grant {
							b.Fatalf("decision %v", d)
						}
					}
					p.Commit(id)
				}
			}
		})
	}
}

func BenchmarkRSGTAdmission(b *testing.B) {
	// Batched RSG arc insertion through the scheduler: a stream of
	// pairwise-conflicting transactions, each granted and committed, so
	// every request exercises AddArcBatch and commit-time retirement.
	const nTxn = 64
	progs := make([]*core.Transaction, nTxn)
	for i := range progs {
		progs[i] = core.T(core.TxnID(i+1), core.R("x"), core.W("x"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sched.NewRSGT(sched.AbsoluteOracle{})
		for k, tx := range progs {
			id := int64(k + 1)
			p.Begin(id, tx)
			for seq := 0; seq < tx.Len(); seq++ {
				req := sched.OpRequest{Instance: id, Program: tx, Seq: seq, Op: tx.Op(seq)}
				if d := p.Request(req); d != sched.Grant {
					b.Fatalf("decision %v", d)
				}
			}
			p.Commit(id)
		}
	}
}

// BenchmarkConcurrentRecorder pins the observability plane's hot-path
// cost for the perf gate: the same low-conflict sharded workload bare,
// with the default sampled plane, and with the full-trace plane. The
// sampled/off ratio is the overhead budget of DESIGN.md §5.3 (the
// ladder's obs.tps_ratio_sampled measures it end to end; this keeps it
// in benchstat).
func BenchmarkConcurrentRecorder(b *testing.B) {
	w := benchPrograms(b, workload.SyntheticConfig{
		Objects: 512, Programs: 128, OpsPerTxn: 8, WriteRatio: 0.25,
	})
	run := func(b *testing.B, mkPlane func() *obs.Plane) {
		ops := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var plane *obs.Plane
			if mkPlane != nil {
				b.StopTimer()
				plane = mkPlane()
				b.StartTimer()
			}
			res, _, err := w.RunWith(sched.NewS2PLSharded(8), workload.RunOptions{
				Seed: 1, MPL: 16, Shards: 8, Concurrent: true, Obs: plane,
			})
			if err != nil {
				b.Fatal(err)
			}
			ops += res.OpsExecuted
			if plane != nil {
				plane.Close()
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("sampled", func(b *testing.B) {
		run(b, func() *obs.Plane { return obs.New(obs.Options{}) })
	})
	b.Run("full", func(b *testing.B) {
		run(b, func() *obs.Plane { return obs.New(obs.Options{Full: true}) })
	})
}

// BenchmarkDeterministicRunner keeps the tick driver in the perf gate:
// regressions in the shared runner plumbing show up here even when the
// concurrent path masks them with goroutine scheduling noise.
func BenchmarkDeterministicRunner(b *testing.B) {
	w := benchPrograms(b, workload.SyntheticConfig{
		Objects: 128, Programs: 64, OpsPerTxn: 8, WriteRatio: 0.25,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := txn.New(txn.Config{
			Protocol: sched.NewS2PL(),
			Programs: w.Programs,
			Oracle:   w.Oracle,
			MPL:      8,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeterministicRunnerChain holds the tick driver's run-length
// claim: the ladder's chain-soak shape (program i reads x(i-1) and
// writes x(i) over 257 objects, RSGT over an absolute spec, MPL 8, seed
// 1) at two run lengths. Retirement keeps the live set at a few
// programs whatever the length, so ns/commit at 32000 programs should
// stay close to its value at 2000; a per-tick cost that grows with the
// queued programs shows as a ratio well above 1.
func BenchmarkDeterministicRunnerChain(b *testing.B) {
	for _, n := range []int{2000, 32000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			progs := chainPrograms(n)
			commits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runChain(progs)
				if err != nil {
					b.Fatal(err)
				}
				commits += res.Committed
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits), "ns/commit")
		})
	}
}

// chainPrograms builds the chain shape: program i reads x(i-1) and
// writes x(i) over 257 objects.
func chainPrograms(n int) []*core.Transaction {
	obj := func(i int) string { return fmt.Sprintf("x%d", i%257) }
	progs := make([]*core.Transaction, n)
	for i := range progs {
		progs[i] = core.T(core.TxnID(i+1), core.R(obj(i)), core.W(obj(i+1)))
	}
	return progs
}

// runChain runs programs on the tick driver under RSGT over an absolute
// spec at MPL 8, seed 1.
func runChain(progs []*core.Transaction) (*txn.Result, error) {
	r, err := txn.New(txn.Config{
		Protocol: sched.NewRSGT(sched.AbsoluteOracle{}),
		Programs: progs,
		Oracle:   sched.AbsoluteOracle{},
		MPL:      8,
		Seed:     1,
	})
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// TestChainCommitAllocations pins the steady-state garbage of a commit
// on the chain shape (2,000 programs): the engine recycles committed
// instances with their maps, undo logs and event buffers, so what is
// left per commit is the protocol's own state and the driver's set-up
// spread over the run. Allocating a fresh instance per admission made
// 13 allocations per commit.
func TestChainCommitAllocations(t *testing.T) {
	progs := chainPrograms(2000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := runChain(progs); err != nil {
			t.Fatal(err)
		}
	})
	if perCommit := allocs / float64(len(progs)); perCommit > 8 {
		t.Errorf("%.1f allocations per commit, want at most 8", perCommit)
	} else {
		t.Logf("%.2f allocations per commit", perCommit)
	}
}

// BenchmarkDeterministicRunnerMixRel is the ladder's mix-rel shape on
// the tick driver: 512 objects, 256 programs of 16 operations, 25 %
// writes, units of 4 operations from the workload's own oracle, RSGT at
// MPL 8, seed 1. It reports allocations, so per-commit garbage from the
// engine's buffers or the oracle shows in the perf gate.
func BenchmarkDeterministicRunnerMixRel(b *testing.B) {
	w := benchPrograms(b, workload.SyntheticConfig{
		Objects: 512, Programs: 256, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: 4,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := txn.New(txn.Config{
			Protocol: sched.NewRSGT(w.Oracle),
			Programs: w.Programs,
			Oracle:   w.Oracle,
			MPL:      8,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommittedCertify is the ladder's certify-offline timed
// region exactly: Result.CommittedSchedule (the set, the schedule from
// the trace's events, the specification from the workload's own
// oracle), then depends-on, the graph and Theorem 1's acyclicity test.
// The committed run is mix g=4 at 48 programs (512 objects, 16
// operations, 25 % writes) under RSGT on the tick driver at MPL 8, seed
// 1, made once outside the timer.
func BenchmarkCommittedCertify(b *testing.B) {
	w := benchPrograms(b, workload.SyntheticConfig{
		Objects: 512, Programs: 48, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: 4,
	})
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{Seed: 1, MPL: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, sp, err := res.CommittedSchedule()
		if err != nil {
			b.Fatal(err)
		}
		if !core.BuildRSGUnder(s, sp, core.ComputeDepends(s)).Acyclic() {
			b.Fatal("RSGT committed a schedule the Theorem 1 test rejects")
		}
	}
}

// commitWALBanking is the banking workload of
// BenchmarkConcurrentCommitWAL and TestGroupCommitCoversCohort.
func commitWALBanking(tb testing.TB) *workload.Workload {
	tb.Helper()
	w, err := workload.Banking(workload.BankingConfig{
		Families: 16, AccountsPerFamily: 3, Customers: 64,
		CreditAudits: 8, FamiliesPerAudit: 2, BankAudits: 1,
		CrossingAudits: true, InitialBalance: 100,
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// newCommitWAL opens BenchmarkConcurrentCommitWAL's log: one lane over
// memory with a 1 ms simulated fsync.
func newCommitWAL(tb testing.TB) *storage.ShardedWAL {
	tb.Helper()
	mem := storage.NewMemBackend()
	mem.SyncDelay = time.Millisecond
	wal, err := storage.NewShardedWAL(mem, storage.SegmentedOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return wal
}

// runCommitWAL runs w under RSGT on the goroutine driver at MPL 8 over
// wal and returns the run's commits.
func runCommitWAL(tb testing.TB, w *workload.Workload, wal *storage.ShardedWAL) int {
	tb.Helper()
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
		Seed: 1, MPL: 8, Concurrent: true, WAL: wal,
	})
	if err != nil {
		tb.Fatal(err)
	}
	checkReleased(tb, wal)
	return res.Committed
}

// BenchmarkConcurrentCommitWAL is the group-commit shape of the whole
// stack: banking under RSGT on the goroutine driver at MPL 8 over one
// log lane with a 1 ms simulated fsync. Commits/s is bound by how many
// commit records one fsync covers, which fsyncs/commit reports.
func BenchmarkConcurrentCommitWAL(b *testing.B) {
	w := commitWALBanking(b)
	commits, fsyncs := 0, int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wal := newCommitWAL(b)
		b.StartTimer()
		commits += runCommitWAL(b, w, wal)
		b.StopTimer()
		if err := wal.Close(); err != nil {
			b.Fatal(err)
		}
		fsyncs += wal.Stats().Fsyncs
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(fsyncs)/float64(commits), "fsyncs/commit")
}
