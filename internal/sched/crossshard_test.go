package sched_test

// Cross-shard conflict tests: transaction sets whose atomic-unit
// boundaries straddle shard boundaries of the runtime's key-space
// partition. The RSGT hot path inserts each request's F/B delta as
// one batch (graph.AddArcBatch) and relies on the batch rolling itself
// back atomically on a cycle; these tests pin down that the batched
// path accepts and rejects exactly the interleavings the offline
// Theorem 1 test does, exhaustively over every schedule of the sets.

import (
	"fmt"
	"testing"

	"relser/internal/core"
	"relser/internal/enumerate"
	"relser/internal/sched"
	"relser/internal/shard"
)

// crossShardObjects returns nObjects names that all land on distinct
// shards of an n-shard router, so consecutive operations on them are
// guaranteed to cross shard boundaries.
func crossShardObjects(t *testing.T, n, nObjects int) []string {
	t.Helper()
	router := shard.NewRouter(n)
	used := make(map[int]bool)
	var out []string
	for i := 0; len(out) < nObjects && i < 10000; i++ {
		name := fmt.Sprintf("o%d", i)
		s := router.Shard(name)
		if used[s] {
			continue
		}
		used[s] = true
		out = append(out, name)
	}
	if len(out) < nObjects {
		t.Fatalf("could not find %d objects on distinct shards of %d", nObjects, n)
	}
	return out
}

func TestCrossShardObjectsAreDistinct(t *testing.T) {
	objs := crossShardObjects(t, 8, 4)
	router := shard.NewRouter(8)
	seen := make(map[int]string)
	for _, o := range objs {
		s := router.Shard(o)
		if prev, dup := seen[s]; dup {
			t.Fatalf("objects %s and %s share shard %d", prev, o, s)
		}
		seen[s] = o
	}
}

// TestCrossShardUnitsRSGTMatchesOffline enumerates every interleaving
// of transaction sets whose atomic units straddle shards and checks
// that replaying each through RSGT (batched arc insertion) reaches the
// same verdict as the offline relative serializability test.
func TestCrossShardUnitsRSGTMatchesOffline(t *testing.T) {
	objs := crossShardObjects(t, 8, 3)
	a, b, c := objs[0], objs[1], objs[2]

	cases := []struct {
		name string
		mk   func() (*core.TxnSet, *core.Spec)
	}{
		{
			// T1's two units each span two shards; T2 and T3 conflict
			// with one unit each from a third shard.
			name: "two-units-straddling",
			mk: func() (*core.TxnSet, *core.Spec) {
				ts := core.MustTxnSet(
					core.T(1, core.R(a), core.W(b), core.R(b), core.W(a)),
					core.T(2, core.W(a), core.W(c)),
					core.T(3, core.W(b), core.R(c)),
				)
				sp := core.NewSpec(ts)
				// One boundary in the middle of T1 relative to both
				// observers: each unit covers objects on two shards.
				mustCut(t, sp, 1, 2, 2)
				mustCut(t, sp, 1, 3, 2)
				return ts, sp
			},
		},
		{
			// Asymmetric view: T2 sees T1 in single-op units (fully
			// breakable), T3 sees T1 atomically; every T1 unit boundary
			// is also a shard boundary crossing.
			name: "asymmetric-views",
			mk: func() (*core.TxnSet, *core.Spec) {
				ts := core.MustTxnSet(
					core.T(1, core.W(a), core.W(b), core.W(c)),
					core.T(2, core.R(a), core.R(c)),
					core.T(3, core.R(c), core.R(a)),
				)
				sp := core.NewSpec(ts)
				mustCut(t, sp, 1, 2, 1)
				mustCut(t, sp, 1, 2, 2)
				return ts, sp
			},
		},
		{
			// Mutual relaxation across shards: both long transactions
			// are breakable relative to each other at a cross-shard
			// boundary, with a short pivot transaction.
			name: "mutual-cross-shard",
			mk: func() (*core.TxnSet, *core.Spec) {
				ts := core.MustTxnSet(
					core.T(1, core.W(a), core.R(b), core.W(c)),
					core.T(2, core.W(c), core.R(a), core.W(b)),
					core.T(3, core.R(b), core.W(a)),
				)
				sp := core.NewSpec(ts)
				mustCut(t, sp, 1, 2, 1)
				mustCut(t, sp, 2, 1, 2)
				return ts, sp
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, sp := tc.mk()
			oracle := sched.SpecOracle{Spec: sp}
			total, admitted, rejected := 0, 0, 0
			enumerate.Schedules(ts, func(s *core.Schedule) bool {
				total++
				offline := core.IsRelativelySerializable(s, sp)
				online := admits(sched.NewRSGT(oracle), s)
				if offline != online {
					t.Fatalf("schedule %s: offline=%v online=%v", s, offline, online)
				}
				if online {
					admitted++
				} else {
					rejected++
				}
				return true
			})
			if admitted == 0 || rejected == 0 {
				t.Fatalf("degenerate case: %d schedules, %d admitted, %d rejected",
					total, admitted, rejected)
			}
		})
	}
}

func mustCut(t *testing.T, sp *core.Spec, a, b core.TxnID, p int) {
	t.Helper()
	if err := sp.CutAfter(a, b, p); err != nil {
		t.Fatal(err)
	}
}
