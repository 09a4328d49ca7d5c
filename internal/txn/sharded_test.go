package txn_test

// Tests for the sharded concurrent driver: every protocol under a
// striped hot path, the targeted wake policy (thundering-herd fix)
// observed through the contention counters, cross-shard atomic units
// certified against the offline theory, and traced sharded runs
// replayed through trace.VerifyCycles.

import (
	"fmt"
	"runtime"
	"testing"

	"relser/internal/core"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/shard"
	"relser/internal/storage"
	"relser/internal/trace"
	"relser/internal/txn"
	"relser/internal/workload"
)

// TestShardedWorkloadsAllProtocols runs the banking and long-lived
// workloads with an 8-way sharded driver under every registered
// protocol that guarantees (relative) serializability, certifying each
// committed schedule offline.
func TestShardedWorkloadsAllProtocols(t *testing.T) {
	mks := []struct {
		name string
		make func(seed int64) (*workload.Workload, error)
	}{
		{"banking", func(seed int64) (*workload.Workload, error) {
			return workload.Banking(workload.DefaultBankingConfig(), seed)
		}},
		{"longlived", func(seed int64) (*workload.Workload, error) {
			return workload.LongLived(workload.DefaultLongLivedConfig(), seed)
		}},
	}
	protos := []string{"s2pl", "to", "sgt", "rsgt", "altruistic", "ral"}
	for _, m := range mks {
		for _, proto := range protos {
			t.Run(m.name+"/"+proto, func(t *testing.T) {
				w, err := m.make(7)
				if err != nil {
					t.Fatal(err)
				}
				p, err := sched.NewProtocolSharded(proto, w.Oracle, 8)
				if err != nil {
					t.Fatal(err)
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
					Shards:    8,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != len(w.Programs) {
					t.Fatalf("committed %d of %d", res.Committed, len(w.Programs))
				}
				if err := res.Verify(); err != nil {
					t.Errorf("verification: %v", err)
				}
				if w.Invariant != nil {
					if err := w.Invariant(store.Snapshot()); err != nil {
						t.Errorf("invariant: %v", err)
					}
				}
			})
		}
	}
}

// TestShardedDisjointObjectsStayQuiet is the thundering-herd check for
// the conflict-free case: programs touching disjoint objects under a
// sharded shard-safe protocol never block, so the driver must never
// wake or broadcast anything — the grant path is silent.
func TestShardedDisjointObjectsStayQuiet(t *testing.T) {
	var progs []*core.Transaction
	for i := 1; i <= 16; i++ {
		var ops []core.Op
		for k := 0; k < 4; k++ {
			obj := fmt.Sprintf("p%d.%d", i, k)
			ops = append(ops, core.W(obj), core.R(obj))
		}
		progs = append(progs, core.T(core.TxnID(i), ops...))
	}
	reg := metrics.NewRegistry()
	r, err := txn.NewConcurrent(txn.Config{
		Protocol: sched.NewS2PLSharded(8),
		Programs: progs,
		MPL:      8,
		Shards:   8,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(progs) || res.Blocks != 0 {
		t.Fatalf("result %s", res)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"txn.wakeups", "txn.cond.broadcast_shard", "txn.cond.broadcast_global", "txn.cond.broadcast_flood"} {
		if v := snap.Counters[name]; v != 0 {
			t.Errorf("%s = %d on a conflict-free workload", name, v)
		}
	}
}

// TestShardedHotSpotBlocksOnOneShard pins the targeted wake policy's
// premise: when every conflict is on one object, all lock waits land on
// that object's stripe and no other stripe's contention counter moves.
// A protocol that is not shard-safe (altruistic locking) runs on one
// stripe whatever Config.Shards asks for, so only stripe 0's
// instruments exist.
func TestShardedHotSpotBlocksOnOneShard(t *testing.T) {
	// On a single-processor host workers tend to run whole programs
	// between preemptions and never contend; extra Ps force real
	// time-slicing so the blocking path actually executes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const shards = 8
	hot := "h"
	var progs []*core.Transaction
	for i := 1; i <= 12; i++ {
		ops := []core.Op{core.W(hot)}
		for k := 0; k < 6; k++ {
			ops = append(ops, core.W(fmt.Sprintf("p%d.%d", i, k)))
		}
		progs = append(progs, core.T(core.TxnID(i), ops...))
	}
	for _, tc := range []struct {
		name    string
		proto   func() sched.Protocol
		stripes int
	}{
		{"s2pl", func() sched.Protocol { return sched.NewS2PLSharded(shards) }, shards},
		{"altruistic", func() sched.Protocol { return sched.NewAltruistic(sched.AbsoluteOracle{}) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hotShard := shard.NewRouter(tc.stripes).Shard(hot)
			totalBlocks := 0
			for trial := 0; trial < 10; trial++ {
				reg := metrics.NewRegistry()
				r, err := txn.NewConcurrent(txn.Config{
					Protocol: tc.proto(),
					Programs: progs,
					MPL:      8,
					Shards:   shards,
					Metrics:  reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != len(progs) {
					t.Fatalf("trial %d: committed %d", trial, res.Committed)
				}
				snap := reg.Snapshot()
				sum := int64(0)
				for s := 0; s < shards; s++ {
					blocks := fmt.Sprintf("txn.shard%02d.blocks", s)
					_, hasCounter := snap.Counters[blocks]
					_, hasHist := snap.Histograms[fmt.Sprintf("txn.shard%02d.wait_seconds", s)]
					if (hasCounter || hasHist) != (s < tc.stripes) {
						t.Errorf("trial %d: stripe %d instruments exist = %v with %d stripe(s)",
							trial, s, hasCounter || hasHist, tc.stripes)
					}
					v := snap.Counters[blocks]
					sum += v
					if s != hotShard && v != 0 {
						t.Errorf("trial %d: stripe %d counted %d blocks; only stripe %d (object %q) can contend",
							trial, s, v, hotShard, hot)
					}
				}
				if int(sum) != res.Blocks {
					t.Errorf("trial %d: per-stripe blocks sum %d != result blocks %d", trial, sum, res.Blocks)
				}
				totalBlocks += res.Blocks
			}
			t.Logf("hot-spot blocks across trials: %d (all on stripe %d)", totalBlocks, hotShard)
		})
	}
}

// TestShardedCrossShardUnitsCertify drives the concurrent sharded
// driver over programs whose atomic units straddle shard boundaries
// (see the sched package's exhaustive equivalence test for the same
// sets) and demands that every committed schedule passes the offline
// RSG certification.
func TestShardedCrossShardUnitsCertify(t *testing.T) {
	router := shard.NewRouter(8)
	used := make(map[int]bool)
	var objs []string
	for i := 0; len(objs) < 3; i++ {
		name := fmt.Sprintf("o%d", i)
		if s := router.Shard(name); !used[s] {
			used[s] = true
			objs = append(objs, name)
		}
	}
	a, b, c := objs[0], objs[1], objs[2]
	ts := core.MustTxnSet(
		core.T(1, core.R(a), core.W(b), core.R(b), core.W(a)),
		core.T(2, core.W(a), core.W(c)),
		core.T(3, core.W(b), core.R(c)),
	)
	sp := core.NewSpec(ts)
	for _, obs := range []core.TxnID{2, 3} {
		if err := sp.CutAfter(1, obs, 2); err != nil {
			t.Fatal(err)
		}
	}
	oracle := sched.SpecOracle{Spec: sp}
	for trial := 0; trial < 30; trial++ {
		r, err := txn.NewConcurrent(txn.Config{
			Protocol: sched.NewRSGT(oracle),
			Programs: ts.Txns(),
			Oracle:   oracle,
			MPL:      3,
			Shards:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Committed != 3 {
			t.Fatalf("trial %d: committed %d", trial, res.Committed)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestShardedTracedRunReplayVerifies runs the synthetic workload on
// the sharded concurrent driver with tracing enabled and replays every
// cycle-rejection explanation through the offline RSG machinery.
func TestShardedTracedRunReplayVerifies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := workload.DefaultSyntheticConfig()
	cfg.Granularity = 2
	checkedTotal := 0
	for trial := 0; trial < 5; trial++ {
		w, err := workload.Synthetic(cfg, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		buf := trace.NewBuffer()
		res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
			Seed:       int64(trial),
			MPL:        8,
			Shards:     8,
			Concurrent: true,
			Tracer:     trace.New(buf),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("trial %d: committed schedule failed certification: %v", trial, err)
		}
		events := buf.Events()
		checked, err := trace.VerifyCycles(events, w.Oracle.Cuts)
		if err != nil {
			t.Fatalf("trial %d: replay verification failed after %d cycle(s): %v", trial, checked, err)
		}
		checkedTotal += checked
	}
	t.Logf("replay-verified %d cycle rejections across trials", checkedTotal)
}
