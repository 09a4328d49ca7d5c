package sched_test

// Bounded-memory certification: retirement, the stranded sweep and the
// history rebase keep the graph and the executed-operation index
// proportional to the live window over long streams, and leave nothing
// behind after a flush. That they never change a decision is
// equivalence_test.go's first-refusal property.

import (
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
)

// streamWindow drives n chained transactions (each reads its
// predecessor's object, then writes its own) through p with a sliding
// window of live instances, committing the oldest as the window
// fills. Every request's dependency source is still live, so real
// F/B arcs stress the clocks, while steady-state commit keeps the
// retirement pipeline fed. Returns the final stats after a flush.
func streamWindow(t *testing.T, p sched.Protocol, n, window int) sched.RetireStats {
	t.Helper()
	r := p.(sched.Retirer)
	var live []int64
	begin := func(i int64) *core.Transaction {
		tx := core.T(core.TxnID(i), core.R(obj(i-1)), core.W(obj(i)))
		p.Begin(i, tx)
		live = append(live, i)
		return tx
	}
	for i := int64(1); i <= int64(n); i++ {
		tx := begin(i)
		for seq := 0; seq < tx.Len(); seq++ {
			req := sched.OpRequest{Instance: i, Program: tx, Seq: seq, Op: tx.Op(seq)}
			if d := p.Request(req); d != sched.Grant {
				t.Fatalf("txn %d op %d: %v (forward chain cannot cycle)", i, seq, d)
			}
		}
		if len(live) >= window {
			p.Commit(live[0])
			live = live[1:]
		}
		r.SetLowWater(i - int64(window))
		// Bounded at every step, not just after the final flush: the
		// epoch thresholds cap the graph at the pending-queue trigger
		// and the dependency index at the rebase trigger (2x its 1024
		// floor) whatever the stream length.
		if st := r.RetireStats(); st.LiveVertices+st.PendingRetire > 256 || st.ExecEntries > 4096 {
			t.Fatalf("txn %d: %d graph vertices, %d index entries — over the epoch-threshold bounds (256, 4096)",
				i, st.LiveVertices+st.PendingRetire, st.ExecEntries)
		}
	}
	for _, id := range live {
		p.Commit(id)
	}
	r.FlushRetirement()
	return r.RetireStats()
}

func obj(i int64) string {
	return "x" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
}

// splitOracle cuts every program of the stream into one unit per
// operation, so RSGT keeps a vertex and a dependency clock per
// operation (under AbsoluteOracle it keeps one vertex per instance).
var splitOracle = sched.OracleFunc(func(a, _ *core.Transaction) []int { return []int{1} })

func TestRetiredRSGTStreamStaysBounded(t *testing.T) {
	const n = 3000
	st := streamWindow(t, sched.NewRSGT(splitOracle), n, 8)
	if st.LiveVertices != 0 || st.PendingRetire != 0 {
		t.Fatalf("after flush: live=%d pending=%d, want 0/0", st.LiveVertices, st.PendingRetire)
	}
	if st.RetiredVertices != 2*n {
		t.Fatalf("retired %d vertices, want %d (every created vertex)", st.RetiredVertices, 2*n)
	}
	if st.GraphEpochs < 10 {
		t.Fatalf("only %d graph epochs over %d txns — epochs not firing", st.GraphEpochs, n)
	}
	if st.Rebases < 1 {
		t.Fatal("dependency index never rebased")
	}
	// The rebase keeps the index proportional to the live window, not
	// the history: well under the 2x-of-threshold growth ceiling.
	if st.ExecEntries > 3*1024 {
		t.Fatalf("exec index holds %d entries after %d ops — rebase not bounding it", st.ExecEntries, 2*n)
	}
	if hr := st.HitRate(); hr < 0.9 {
		t.Fatalf("fast-path hit rate %.2f on a forward chain, want >= 0.9 (hits=%d misses=%d)",
			hr, st.FastPathHits, st.FastPathMisses)
	}
}

func TestRetiredSGTStreamStaysBounded(t *testing.T) {
	const n = 3000
	st := streamWindow(t, sched.NewSGT(), n, 8)
	if st.LiveVertices != 0 || st.PendingRetire != 0 {
		t.Fatalf("after flush: live=%d pending=%d, want 0/0", st.LiveVertices, st.PendingRetire)
	}
	if st.RetiredVertices != n {
		t.Fatalf("retired %d vertices, want %d", st.RetiredVertices, n)
	}
	if st.GraphEpochs < 10 {
		t.Fatalf("only %d graph epochs over %d txns", st.GraphEpochs, n)
	}
	if st.Rebases < 1 {
		t.Fatal("history never swept")
	}
	if st.ExecEntries > 3*1024 {
		t.Fatalf("access history holds %d entries after %d ops", st.ExecEntries, 2*n)
	}
	if hr := st.HitRate(); hr < 0.9 {
		t.Fatalf("fast-path hit rate %.2f, want >= 0.9 (hits=%d misses=%d)", hr, st.FastPathHits, st.FastPathMisses)
	}
}

// interleavedPair drives one committed pair of transactions whose
// atomic units interleave both ways — wA(xi) wB(xi) wB(yi) wA(yi)
// under a spec that cuts each relative to the other — leaving
// instance-level mutual dependency (A -> B on xi, B -> A on yi) over
// an acyclic vertex graph. prune's no-foreign-in-arc test can never
// reclaim this shape; only the stranded-cluster reachability sweep
// can.
func interleavedPair(t *testing.T, p sched.Protocol, a, b *core.Transaction) {
	t.Helper()
	p.Begin(int64(a.ID), a)
	p.Begin(int64(b.ID), b)
	order := []struct {
		tx  *core.Transaction
		seq int
	}{{a, 0}, {b, 0}, {b, 1}, {a, 1}}
	for _, st := range order {
		req := sched.OpRequest{Instance: int64(st.tx.ID), Program: st.tx, Seq: st.seq, Op: st.tx.Op(st.seq)}
		if d := p.Request(req); d != sched.Grant {
			t.Fatalf("txn %d op %d: %v (spec cuts make this interleaving admissible)", st.tx.ID, st.seq, d)
		}
	}
	p.Commit(int64(a.ID))
	p.Commit(int64(b.ID))
}

// cutBothWays builds n disjoint interleaved pairs (2n transactions)
// and a spec cutting each pair's members relative to each other.
func cutBothWays(t *testing.T, n int) (*core.Spec, []*core.Transaction) {
	t.Helper()
	txns := make([]*core.Transaction, 0, 2*n)
	for i := 0; i < n; i++ {
		x, y := obj(int64(2*i)), obj(int64(2*i+1))
		txns = append(txns,
			core.T(core.TxnID(2*i+1), core.W(x), core.W(y)),
			core.T(core.TxnID(2*i+2), core.W(x), core.W(y)))
	}
	ts := core.MustTxnSet(txns...)
	sp := core.NewSpec(ts)
	for i := 0; i < n; i++ {
		a, b := txns[2*i], txns[2*i+1]
		if err := sp.CutAfter(a.ID, b.ID, 0); err != nil {
			t.Fatal(err)
		}
		if err := sp.CutAfter(b.ID, a.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	return sp, txns
}

// TestRetiredRSGTReclaimsInterleavedCommits: a mutually interleaved
// committed pair must still leave nothing behind after a flush.
func TestRetiredRSGTReclaimsInterleavedCommits(t *testing.T) {
	sp, txns := cutBothWays(t, 1)
	p := sched.NewRSGT(sched.SpecOracle{Spec: sp})
	interleavedPair(t, p, txns[0], txns[1])
	p.FlushRetirement()
	st := p.RetireStats()
	if st.LiveVertices != 0 || st.PendingRetire != 0 {
		t.Fatalf("after flush: live=%d pending=%d, want 0/0 (interlocked committed pair stranded)", st.LiveVertices, st.PendingRetire)
	}
	if st.RetiredVertices != 4 {
		t.Fatalf("retired %d vertices, want 4", st.RetiredVertices)
	}
}

// TestRetiredRSGTStreamWithCutsStaysBounded: a long stream of disjoint
// interleaved pairs — every one of which strands under prune alone —
// must stay bounded via the count-triggered sweep, without any flush.
func TestRetiredRSGTStreamWithCutsStaysBounded(t *testing.T) {
	const pairs = 400
	sp, txns := cutBothWays(t, pairs)
	p := sched.NewRSGT(sched.SpecOracle{Spec: sp})
	maxLive := 0
	for i := 0; i < pairs; i++ {
		interleavedPair(t, p, txns[2*i], txns[2*i+1])
		p.SetLowWater(int64(2*i - 1))
		if st := p.RetireStats(); st.LiveVertices > maxLive {
			maxLive = st.LiveVertices
		}
	}
	// Sweeps fire on the doubling schedule from a 64-instance floor, so
	// the graph holds a small multiple of the threshold, not 2*pairs
	// transactions.
	if maxLive > 1024 {
		t.Fatalf("graph peaked at %d vertices over %d interlocked pairs — stranded sweep not firing", maxLive, pairs)
	}
	p.FlushRetirement()
	st := p.RetireStats()
	if st.LiveVertices != 0 || st.PendingRetire != 0 {
		t.Fatalf("after flush: live=%d pending=%d, want 0/0", st.LiveVertices, st.PendingRetire)
	}
	if st.RetiredVertices != int64(4*pairs) {
		t.Fatalf("retired %d vertices, want %d", st.RetiredVertices, 4*pairs)
	}
}

// TestRetiredRALDelegates: RAL exposes the Retirer face of its
// embedded certifier, so what the certifier counts is what RAL reports.
func TestRetiredRALDelegates(t *testing.T) {
	p := sched.NewRAL(sched.AbsoluteOracle{})
	r, ok := sched.Protocol(p).(sched.Retirer)
	if !ok {
		t.Fatal("RAL does not implement Retirer")
	}
	tx := core.T(1, core.W("x"))
	p.Begin(1, tx)
	if d := p.Request(sched.OpRequest{Instance: 1, Program: tx, Op: tx.Op(0)}); d != sched.Grant {
		t.Fatalf("lone write: %v", d)
	}
	if st := r.RetireStats(); st.FastPathHits != 1 || st.LiveVertices != 1 {
		t.Fatalf("stats %+v, want the embedded RSGT's one fast-path grant over one vertex", st)
	}
}

// TestDotSnapshotCollapsesStablePrefix: once vertices have retired,
// the DOT export renders them as one collapsed node instead of
// touching remapped IDs.
func TestDotSnapshotCollapsesStablePrefix(t *testing.T) {
	p := sched.NewRSGT(splitOracle)
	streamOK := func(i int64) {
		tx := core.T(core.TxnID(i), core.R(obj(i-1)), core.W(obj(i)))
		p.Begin(i, tx)
		for seq := 0; seq < tx.Len(); seq++ {
			req := sched.OpRequest{Instance: i, Program: tx, Seq: seq, Op: tx.Op(seq)}
			if d := p.Request(req); d != sched.Grant {
				t.Fatalf("txn %d op %d: %v", i, seq, d)
			}
		}
	}
	for i := int64(1); i <= 5; i++ {
		streamOK(i)
		p.Commit(i)
	}
	p.FlushRetirement()
	streamOK(6) // keep one live instance so the snapshot has content
	dot := p.DotSnapshot()
	if !strings.Contains(dot, "stable prefix (10 retired)") {
		t.Fatalf("DOT snapshot missing collapsed stable-prefix node:\n%s", dot)
	}
}

// TestRetireStatsAccumulate covers the sharded-aggregation helper.
func TestRetireStatsAccumulate(t *testing.T) {
	var agg sched.RetireStats
	agg.Add(sched.RetireStats{FastPathHits: 3, FastPathMisses: 1, LiveVertices: 2})
	agg.Add(sched.RetireStats{FastPathHits: 5, RetiredVertices: 7})
	if agg.FastPathHits != 8 || agg.FastPathMisses != 1 || agg.LiveVertices != 2 || agg.RetiredVertices != 7 {
		t.Fatalf("aggregate wrong: %+v", agg)
	}
	if hr := agg.HitRate(); hr < 0.88 || hr > 0.9 {
		t.Fatalf("hit rate %.3f, want 8/9", hr)
	}
}
