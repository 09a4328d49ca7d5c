package sched_test

// Bounded-memory certification properties. The two load-bearing ones
// are exhaustive verdict equivalence — with retirement and the
// vector-clock fast path on, the protocols reach exactly the offline
// Theorem 1 / conflict-serializability verdicts over the random
// small-interleaving corpus — and per-operation decision identity
// against the retirement-off baseline (stronger: the machinery is
// invisible decision by decision, not just in the final verdict).

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"relser/internal/core"
	"relser/internal/graph"
	"relser/internal/sched"
)

// retiredAdmits replays s through p with retirement enabled, pruning
// aggressively: every commit is followed by a retirement flush, so the
// graph compacts while the schedule is still in flight (small corpora
// never reach the count-based epoch thresholds on their own).
func retiredAdmits(p sched.Protocol, s *core.Schedule) bool {
	r := p.(sched.Retirer)
	r.SetRetirement(true)
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op}
		if p.Request(req) != sched.Grant {
			return false
		}
		executed[op.Txn]++
		if executed[op.Txn] == tx.Len() {
			p.Commit(int64(op.Txn))
			r.FlushRetirement()
		}
	}
	return true
}

func TestPropertyRetiredRSGTMatchesTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	admissible := 0
	for trial := 0; trial < 400; trial++ {
		_, sp, s := genSchedInstance(rng)
		offline := core.IsRelativelySerializable(s, sp)
		online := retiredAdmits(sched.NewRSGT(sched.SpecOracle{Spec: sp}), s)
		if offline != online {
			t.Fatalf("trial %d: offline=%v retired-online=%v\nschedule: %s\nspec:\n%s",
				trial, offline, online, s, sp)
		}
		if offline {
			admissible++
			derivedLabelsMatchOffline(t, trial, s, sp)
		}
	}
	if admissible == 0 || admissible == 400 {
		t.Fatalf("%d of 400 schedules admissible: the sample must exercise both verdicts", admissible)
	}
}

var (
	dotNode = regexp.MustCompile(`(?m)^  n(\d+) \[label="\S+ #(\d+)"\];$`)
	dotEdge = regexp.MustCompile(`(?m)^  n(\d+) -> n(\d+) \[label="([^"]*)"\];$`)

	kindOfLetter = map[string]core.ArcKind{"I": core.IArc, "D": core.DArc, "F": core.FArc, "B": core.BArc}
)

// derivedLabelsMatchOffline admits all of s without committing, so
// every instance stays resident, and checks RSGT's DOT snapshot against
// the offline RSG of the same schedule. RSGT inserts only G″ (THEORY.md
// §4): I-arcs, and per request the F- and B-arc of each clock entry it
// advanced. So the online graph is a subgraph of Definition 3's: every
// rendered arc must be an offline arc whose derived I/F/B label — not
// stored with the arc, so pinned only here — is a subset of the offline
// kinds, no cross-transaction arc may be a D-arc alone, and the online
// graph has no more arcs than the offline G″. The dominance lemma is
// what makes the subgraph enough: both graphs must have the same
// transitive closure.
func derivedLabelsMatchOffline(t *testing.T, trial int, s *core.Schedule, sp *core.Spec) {
	t.Helper()
	p := sched.NewRSGT(sched.SpecOracle{Spec: sp})
	p.SetRetirement(true)
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: ts.Txn(op.Txn), Seq: executed[op.Txn], Op: op}
		if d := p.Request(req); d != sched.Grant {
			t.Fatalf("trial %d: relatively serializable schedule refused at %s: %v", trial, op, d)
		}
		executed[op.Txn]++
	}
	dot := p.DotSnapshot()
	// Nodes are listed per instance in program order.
	opOf := make(map[string]core.Op)
	next := make(map[core.TxnID]int)
	for _, m := range dotNode.FindAllStringSubmatch(dot, -1) {
		id, _ := strconv.Atoi(m[2])
		tx := ts.Txn(core.TxnID(id))
		opOf[m[1]] = tx.Op(next[tx.ID])
		next[tx.ID]++
	}
	if len(opOf) != ts.NumOps() {
		t.Fatalf("trial %d: snapshot names %d of %d operations:\n%s", trial, len(opOf), ts.NumOps(), dot)
	}
	offline := core.BuildRSG(s, sp)
	online := graph.NewDense(ts.NumOps())
	for _, m := range dotEdge.FindAllStringSubmatch(dot, -1) {
		u, v := opOf[m[1]], opOf[m[2]]
		var got core.ArcKind
		for _, letter := range strings.Split(m[3], ",") {
			got |= kindOfLetter[letter]
		}
		if want := offline.ArcKinds(u, v); got == 0 || got&^want != 0 {
			t.Fatalf("trial %d: arc %v -> %v derived as %q, offline RSG says %q\nschedule: %s\nspec:\n%s",
				trial, u, v, m[3], want, s, sp)
		}
		if u.Txn != v.Txn && got&(core.FArc|core.BArc) == 0 {
			t.Fatalf("trial %d: cross-transaction arc %v -> %v derived as %q: RSGT inserts only staircase F/B arcs\nschedule: %s\nspec:\n%s",
				trial, u, v, m[3], s, sp)
		}
		online.AddArc(ts.GlobalIndexOf(u), ts.GlobalIndexOf(v))
	}
	if online.ArcCount() > offline.TestedArcs() {
		t.Fatalf("trial %d: online graph has %d arcs, offline G″ %d\nschedule: %s\nspec:\n%s\n%s",
			trial, online.ArcCount(), offline.TestedArcs(), s, sp, dot)
	}
	full := graph.NewDense(ts.NumOps())
	offline.Arcs(func(u, v core.Op, _ core.ArcKind) bool {
		full.AddArc(ts.GlobalIndexOf(u), ts.GlobalIndexOf(v))
		return true
	})
	reach, want := online.TransitiveClosure(), full.TransitiveClosure()
	for u := 0; u < ts.NumOps(); u++ {
		for v := 0; v < ts.NumOps(); v++ {
			if reach.HasArc(u, v) != want.HasArc(u, v) {
				t.Fatalf("trial %d: %v reaches %v online=%v offline=%v (%d of %d arcs kept)\nschedule: %s\nspec:\n%s\n%s",
					trial, ts.OpAt(u), ts.OpAt(v), reach.HasArc(u, v), want.HasArc(u, v), online.ArcCount(), offline.NumArcs(), s, sp, dot)
			}
		}
	}
}

func TestPropertyRetiredSGTMatchesConflictSerializability(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 400; trial++ {
		_, _, s := genSchedInstance(rng)
		offline := core.IsConflictSerializable(s)
		online := retiredAdmits(sched.NewSGT(), s)
		if offline != online {
			t.Fatalf("trial %d: offline=%v retired-online=%v\nschedule: %s", trial, offline, online, s)
		}
	}
}

// lockstep replays s through both protocols simultaneously and fails
// on the first operation where their decisions differ. Commit (and a
// retirement flush on the retired side) follows each transaction's
// final granted operation; the replay stops at the first non-Grant,
// like admits.
func lockstep(t *testing.T, trial int, s *core.Schedule, base, retired sched.Protocol) {
	t.Helper()
	r := retired.(sched.Retirer)
	r.SetRetirement(true)
	ts := s.Set()
	for _, tx := range ts.Txns() {
		base.Begin(int64(tx.ID), tx)
		retired.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op}
		db := base.Request(req)
		dr := retired.Request(req)
		if db != dr {
			t.Fatalf("trial %d pos %d (%s): baseline=%v retired=%v\nschedule: %s", trial, pos, op, db, dr, s)
		}
		if db != sched.Grant {
			return
		}
		executed[op.Txn]++
		if executed[op.Txn] == tx.Len() {
			base.Commit(int64(op.Txn))
			retired.Commit(int64(op.Txn))
			r.FlushRetirement()
		}
	}
}

func TestPropertyRetiredRSGTDecisionsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	for trial := 0; trial < 300; trial++ {
		_, sp, s := genSchedInstance(rng)
		lockstep(t, trial, s,
			sched.NewRSGT(sched.SpecOracle{Spec: sp}),
			sched.NewRSGT(sched.SpecOracle{Spec: sp}))
	}
}

func TestPropertyRetiredSGTDecisionsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
	for trial := 0; trial < 300; trial++ {
		_, _, s := genSchedInstance(rng)
		lockstep(t, trial, s, sched.NewSGT(), sched.NewSGT())
	}
}

// streamWindow drives n chained transactions (each reads its
// predecessor's object, then writes its own) through p with a sliding
// window of live instances, committing the oldest as the window
// fills. Every request's dependency source is still live, so real
// F/B arcs stress the clocks, while steady-state commit keeps the
// retirement pipeline fed. Returns the final stats after a flush.
func streamWindow(t *testing.T, p sched.Protocol, n, window int) sched.RetireStats {
	t.Helper()
	r := p.(sched.Retirer)
	r.SetRetirement(true)
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

// TestUnretiredRSGTKeepsEveryVertex is the contrast the bounded streams
// are measured against: with retirement off the graph ends holding both
// vertices of every transaction ever run, so memory grows with history.
func TestUnretiredRSGTKeepsEveryVertex(t *testing.T) {
	const n = 500
	p := sched.NewRSGT(sched.AbsoluteOracle{})
	p.SetRetirement(false)
	for i := int64(1); i <= n; i++ {
		tx := core.T(core.TxnID(i), core.R(obj(i-1)), core.W(obj(i)))
		p.Begin(i, tx)
		for seq := 0; seq < tx.Len(); seq++ {
			p.Request(sched.OpRequest{Instance: i, Program: tx, Seq: seq, Op: tx.Op(seq)})
		}
		p.Commit(i)
	}
	if st := p.RetireStats(); st.Enabled || st.LiveVertices != 2*n {
		t.Fatalf("retirement off: enabled=%v live=%d, want false/%d", st.Enabled, st.LiveVertices, 2*n)
	}
}

func obj(i int64) string {
	return "x" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
}

func TestRetiredRSGTStreamStaysBounded(t *testing.T) {
	const n = 3000
	st := streamWindow(t, sched.NewRSGT(sched.AbsoluteOracle{}), n, 8)
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
	p.SetRetirement(true)
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
	p.SetRetirement(true)
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
// embedded certifier.
func TestRetiredRALDelegates(t *testing.T) {
	p := sched.NewRAL(sched.AbsoluteOracle{})
	r, ok := sched.Protocol(p).(sched.Retirer)
	if !ok {
		t.Fatal("RAL does not implement Retirer")
	}
	r.SetRetirement(true)
	if st := r.RetireStats(); !st.Enabled {
		t.Fatal("retirement did not reach the embedded certifier")
	}
}

// TestSetRetirementFrozenAfterBegin: the clocks must observe every arc
// from graph birth, so the setting may be re-asserted at any time (the
// engine does on every run) but not changed once an instance began.
func TestSetRetirementFrozenAfterBegin(t *testing.T) {
	for _, p := range []sched.Protocol{sched.NewRSGT(sched.AbsoluteOracle{}), sched.NewSGT(), sched.NewRAL(sched.AbsoluteOracle{})} {
		r := p.(sched.Retirer)
		r.SetRetirement(false)
		r.SetRetirement(true)
		p.Begin(1, core.T(1, core.W("x")))
		r.SetRetirement(true)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetRetirement(false) after Begin did not panic", p.Name())
				}
			}()
			r.SetRetirement(false)
		}()
	}
}

// TestDotSnapshotCollapsesStablePrefix: once vertices have retired,
// the DOT export renders them as one collapsed node instead of
// touching remapped IDs.
func TestDotSnapshotCollapsesStablePrefix(t *testing.T) {
	p := sched.NewRSGT(sched.AbsoluteOracle{})
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
	p.SetRetirement(true)
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
	agg.Add(sched.RetireStats{Enabled: true, FastPathHits: 3, FastPathMisses: 1, LiveVertices: 2})
	agg.Add(sched.RetireStats{FastPathHits: 5, RetiredVertices: 7})
	if !agg.Enabled || agg.FastPathHits != 8 || agg.FastPathMisses != 1 || agg.LiveVertices != 2 || agg.RetiredVertices != 7 {
		t.Fatalf("aggregate wrong: %+v", agg)
	}
	if hr := agg.HitRate(); hr < 0.88 || hr > 0.9 {
		t.Fatalf("hit rate %.3f, want 8/9", hr)
	}
}
