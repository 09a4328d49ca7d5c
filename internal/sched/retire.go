package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"relser/internal/core"
	"relser/internal/graph"
)

// Bounded-memory certification: the graph-based protocols (RSGT, SGT —
// RSGT under an absolute spec — and RAL via its embedded RSGT) share
// one certifier. One rule takes finished transactions out of the
// graph: after every commit and abort, each committed instance that no
// live instance reaches is evicted. Evicted vertices retire in
// count-based epoch batches, and the common no-suspected-cycle case is
// certified with a conservative vector-clock test, so scheduler memory
// tracks the live transaction set instead of history.
//
// Epoch pacing is strictly count-based (pending work vs. live size);
// wall-clock epochs would make replays nondeterministic, which detlint
// enforces on every decision site below.

const (
	// retireEpochMinVerts is the minimum number of pending retired
	// vertices before a graph compaction epoch runs; combined with the
	// pending >= live/2 rule the compaction cost is O(1) amortized per
	// retired vertex.
	retireEpochMinVerts = 64
	// rebaseMinEntries is the minimum execution-history length before a
	// dependency-index rebase epoch runs; combined with the
	// total >= 2*retained rule the rebase cost is O(1) amortized per
	// executed operation.
	rebaseMinEntries = 1024
)

// RetireStats reports a protocol's bounded-memory state: graph size,
// retirement progress, and vector-clock fast-path effectiveness.
type RetireStats struct {
	// GraphEpochs counts graph compaction epochs run.
	GraphEpochs int64
	// RetiredVertices counts vertices removed from the graph.
	RetiredVertices int64
	// LiveVertices is the graph's current vertex count.
	LiveVertices int
	// PendingRetire counts vertices queued for the next epoch.
	PendingRetire int
	// Rebases counts rebase epochs of the executed-operation index (the
	// object histories and the resident instances' operations).
	Rebases int64
	// ExecEntries is the executed-operation index's current length.
	ExecEntries int
	// FastPathHits counts requests certified by the vector-clock test
	// alone (no cycle sweep).
	FastPathHits int64
	// FastPathMisses counts requests where the clocks suspected a cycle
	// and the full batched insert ran.
	FastPathMisses int64
}

// HitRate returns the fast-path hit fraction, or 0 when no request
// took either path.
func (s RetireStats) HitRate() float64 {
	total := s.FastPathHits + s.FastPathMisses
	if total == 0 {
		return 0
	}
	return float64(s.FastPathHits) / float64(total)
}

// Retirer is implemented by protocols that bound their memory by
// retiring finished transactions' certification state. The engine
// drives it: SetLowWater from the Admit/Commit stages (the pacemaker
// for epoch work), FlushRetirement from Recover/Finalize so pending
// state unwinds deterministically.
//
// Lifecycle discipline: every method is a lifecycle call in the sense
// of the Protocol contract — the driver never invokes them
// concurrently with Request.
type Retirer interface {
	// SetLowWater feeds the engine's low-water mark: every instance ID
	// below it has finished (committed or aborted) and can never receive
	// another lifecycle call. Monotone; lower values are ignored.
	SetLowWater(instance int64)
	// FlushRetirement drains pending retirement work (queued vertices,
	// overdue rebase) immediately.
	FlushRetirement()
	// RetireStats reports the current bounded-memory state.
	RetireStats() RetireStats
}

// txnInst is one transaction instance of a graph protocol. The object
// histories refer to it by pointer, so whether a recorded source still
// has vertices in the graph is read off the instance itself: resident
// is cleared when the instance leaves the graph (at its abort, or once
// it has committed and no live instance reaches it) and never set
// again, because instance numbers are never reused.
type txnInst struct {
	id      int64
	program *core.Transaction
	// The instance's n vertices are first, first+1, ...: one per
	// operation, or one for the whole transaction under an absolute
	// spec.
	// n is an int32 so that it packs with the two flags below.
	first int
	n     int32

	resident  bool
	committed bool // aborted is !resident && !committed

	// ops[seq] is the executed operation at seq while resident.
	ops []*execOp
	// slot is the instance's reachTable clock slot.
	slot int

	// Per-operation path only. minEntry is the minimum sequence of any
	// arc head ever added into the instance (math.MaxInt until the
	// first one): a path entering this instance from outside can only
	// reach sequences >= minEntry, because within an instance only
	// I-arcs (sequence-forward) connect vertices.
	minEntry int

	// witness, once the instance has committed, is a live instance the
	// retirement sweep found reaching it, if that one is still live.
	witness *txnInst

	// Scratch of the request or sweep whose stamp matches: the instance
	// has been visited as a source, or its witness settled, and (RSGT)
	// its position in RSGT.frontier.
	stamp      uint64
	frontierAt int
}

func (in *txnInst) vertex(seq int) int { return in.first + seq }

// end is one past the instance's last vertex.
func (in *txnInst) end() int { return in.first + int(in.n) }

// alive reports whether the instance's executed operations still count
// as conflict sources (it has not aborted).
func (in *txnInst) alive() bool { return in.resident || in.committed }

// live reports whether the instance is resident and has not committed.
func (in *txnInst) live() bool { return in.resident && !in.committed }

// execOp is one executed operation. On RSGT's per-operation path it
// carries its dependency clock: for every other instance that was
// resident when it executed, the latest operation it depends on
// (THEORY.md §4: earlier ones induce only arcs the latest one's arcs
// imply). Clocks are transitively closed when built, so a later request
// that depends on this operation joins the clock in and never follows
// it further.
type execOp struct {
	inst  *txnInst
	seq   int
	write bool
	clock []dep
}

// certifier is the one place an arc batch is admitted into a
// certification graph (§3 of the paper: insert the request's arcs,
// refuse on a cycle), and the one place the graph protocols keep
// their instances, object histories and retirement state. RSGT embeds
// it, and its two paths (a vertex per operation, or one per instance
// under an absolute spec) differ only in what a vertex is and which
// arcs a request induces: everything else — Commit, Abort, the
// retirement sweep, the history rebase, the clock table, the retirement
// queue and the epoch rule — lives here.
//
// A request is a batch: the protocol calls arc for every arc the
// operation induces (all run from a source instance into the
// requester), then admit. An arc src -> requester can only close a
// cycle if the requester already reaches src, which the requester's
// clock over-approximates; an unsuspected batch is appended without
// any cycle sweep (O(1) amortized per arc), a suspected one takes the
// complete batched Pearce–Kelly insert, which rolls itself back
// atomically on a cycle. Which of the two runs never depends on
// whether a tracer is attached: evidence for a refusal is
// reconstructed afterwards by explainRefusal.
type certifier struct {
	g *graph.Incremental

	insts map[int64]*txnInst // resident instances: vertices in the graph
	// live lists the resident instances that have not committed, in no
	// particular order; committed lists the committed resident instances
	// in ascending id order, the sweep's candidates.
	live      []*txnInst
	committed []*txnInst
	// objHist is, per object, the executed operations on it in execution
	// order (the conflict sources of the next access), held by pointer
	// so that recording one needs no second map access.
	objHist map[string]*[]*execOp
	// stamp numbers the request or sweep being decided (see
	// txnInst.stamp);
	// sources is covering's scratch.
	stamp   uint64
	sources []*execOp

	lowWater int64
	rt       *reachTable
	// retireQ holds finished instances' vertices until a count-based
	// epoch compacts the graph.
	retireQ []int

	graphEpochs int64
	retiredVert int64
	fastHits    int64
	fastMisses  int64

	// execEntries counts the executed operations the index holds, and
	// lastRebaseLive is what the last rebase kept of them (the doubling
	// base for the next rebase).
	execEntries    int
	lastRebaseLive int
	rebases        int64
	// The sweep's vertex sets over the resident span (liveVerts: a live
	// instance's; seen: met by a walk that found no live vertex, or by
	// the walk in progress) and its walk's queue, reused across sweeps.
	liveVerts, seen graph.Bitset
	walk            []int

	// The current request's batch, reused across requests.
	arcs     [][2]int
	srcSlots []int
	suspect  bool
}

func newCertifier() certifier {
	return certifier{
		g:       graph.NewIncremental(0),
		insts:   make(map[int64]*txnInst),
		objHist: make(map[string]*[]*execOp),
		rt:      newReachTable(),
	}
}

// begin makes instance resident with a chain of n fresh vertices
// joined by I-arcs and a clock slot, or does nothing when it already is.
func (c *certifier) begin(instance int64, program *core.Transaction, n int) {
	if _, ok := c.insts[instance]; ok {
		return
	}
	inst := &txnInst{
		id: instance, program: program, first: c.g.AddChain(n), n: int32(n), resident: true,
		ops: make([]*execOp, 0, program.Len()), slot: c.rt.alloc(), minEntry: math.MaxInt,
	}
	c.insts[instance] = inst
	c.live = append(c.live, inst)
}

// requester returns the instance of req, which must be resident and
// requesting its next operation.
func (c *certifier) requester(req OpRequest) *txnInst {
	inst := c.insts[req.Instance]
	if inst == nil {
		panic(fmt.Sprintf("sched: Request for unknown instance %d", req.Instance))
	}
	if req.Seq != len(inst.ops) {
		panic(fmt.Sprintf("sched: instance %d requested seq %d, expected %d", req.Instance, req.Seq, len(inst.ops)))
	}
	return inst
}

// covering returns, newest first, the executed operations in hist that
// a new access conflicts with, reduced to a covering set: the last
// non-aborted write and, for a write, every non-aborted read since it.
// Everything earlier is ordered before that write already, so the
// reduction is cycle-equivalent to the full conflict set. The slice is
// scratch, valid until the next call.
func (c *certifier) covering(hist []*execOp, write bool) []*execOp {
	c.sources = c.sources[:0]
	for i := len(hist) - 1; i >= 0; i-- {
		e := hist[i]
		if !e.inst.alive() {
			continue // aborted
		}
		if e.write || write {
			c.sources = append(c.sources, e)
		}
		if e.write {
			break
		}
	}
	return c.sources
}

// record enters a granted operation into the index, hist being its
// object's history.
func (c *certifier) record(e *execOp, hist *[]*execOp) {
	e.inst.ops = append(e.inst.ops, e)
	*hist = append(*hist, e)
	c.execEntries++
	c.maybeRebase()
}

// arc adds u -> w, running from the instance in srcSlot into the
// requester in reqSlot, to the current batch. mayReach is the
// protocol's refinement of the suspicion test: false when it knows no
// path from the requester can arrive at or before u even if the
// requester's clock has the source.
func (c *certifier) arc(u, w, srcSlot, reqSlot int, mayReach bool) {
	c.arcs = append(c.arcs, [2]int{u, w})
	if mayReach && c.rt.reaches(reqSlot, srcSlot) {
		c.suspect = true
	}
	if !c.rt.seen.Has(srcSlot) {
		c.rt.seen.Set(srcSlot)
		c.srcSlots = append(c.srcSlots, srcSlot)
	}
}

// admit inserts the current batch and starts the next one. It returns
// nil when the batch went in; when the union would close a cycle
// nothing is inserted and the refused batch is returned (valid until
// the next arc call) so explainRefusal can reconstruct the evidence.
func (c *certifier) admit(reqSlot int) (refused [][2]int) {
	arcs, srcs, suspect := c.arcs, c.srcSlots, c.suspect
	c.arcs, c.srcSlots, c.suspect = arcs[:0], srcs[:0], false
	for _, s := range srcs {
		c.rt.seen.Clear(s)
	}
	if !suspect {
		c.fastHits++
		c.g.AppendArcs(arcs)
	} else {
		c.fastMisses++
		if c.g.AddArcBatch(arcs) != nil {
			return arcs
		}
	}
	c.rt.recordArcs(srcs, reqSlot)
	return nil
}

// explainRefusal reconstructs the evidence for a batch admit refused.
// Cold path, run only when a tracer wants the event: the arcs are
// re-inserted one at a time in batch order, so the first arc AddArc
// refuses — position i — is the arc a per-arc protocol would have
// refused, and the live graph's path from its head back to its tail
// (which must exist, or AddArc would have accepted) plus the arc itself
// is a concrete cycle. emit runs while the arcs before i are still in
// the graph, so snapshots show the state the cycle was found in; they
// are removed again afterwards.
func (c *certifier) explainRefusal(refused [][2]int, emit func(i int, path []int)) {
	for i, a := range refused {
		if c.g.AddArc(a[0], a[1]) == nil {
			continue
		}
		emit(i, c.g.FindPath(a[1], a[0]))
		for _, b := range refused[:i] {
			c.g.RemoveArc(b[0], b[1])
		}
		return
	}
	panic("sched: refused batch re-inserted arc by arc without closing a cycle") // AddArcBatch and AddArc disagree
}

// CanCommit implements Protocol.
func (c *certifier) CanCommit(int64) bool { return true }

// Commit implements Protocol.
func (c *certifier) Commit(instance int64) {
	inst := c.insts[instance]
	if inst == nil || inst.committed {
		return
	}
	inst.committed = true
	c.unlive(inst)
	at := sort.Search(len(c.committed), func(i int) bool { return c.committed[i].id > instance })
	c.committed = slices.Insert(c.committed, at, inst)
	c.sweep()
	c.maybeRetire()
}

// Abort implements Protocol: drop the instance's vertices from the
// graph. Its executed operations stay in the object histories as dead
// entries (skipped during source discovery) until the next rebase; the
// driver undoes their store effects and cascades dependents.
func (c *certifier) Abort(instance int64) {
	inst := c.insts[instance]
	if inst == nil {
		return
	}
	c.unlive(inst)
	c.evict(inst)
	c.sweep()
	c.maybeRetire()
}

// unlive removes inst from the live list.
func (c *certifier) unlive(inst *txnInst) {
	i, last := slices.Index(c.live, inst), len(c.live)-1
	c.live[i], c.live[last] = c.live[last], nil
	c.live = c.live[:last]
}

// evict removes a finished instance from the resident set: its
// vertices lose their arcs now and join the next retirement epoch, and
// its clock slot returns to the free list. What only a resident
// instance needs is dropped with it, so an operation of it that stays
// in an object history pins just the instance header.
func (c *certifier) evict(inst *txnInst) {
	for v := inst.first; v < inst.end(); v++ {
		c.g.IsolateVertex(v)
		c.retireQ = append(c.retireQ, v)
	}
	c.rt.release(inst.slot)
	delete(c.insts, inst.id)
	inst.resident = false
	inst.ops, inst.witness = nil, nil
}

// sweep evicts, in ascending id order, every committed resident
// instance that no vertex of a live instance reaches. Such an instance
// can never rejoin a cycle: arcs into a finished instance all predate
// its finish, and every new arc ends at a live requester's vertex, so a
// path from any later transaction into it would have to run through a
// vertex that is live right now — and none reaches it. Skipping future
// arcs out of evicted sources (only resident sources induce arcs) is
// sound for the same reason: a cycle through such an arc u -> v needs a
// path v -> u, and v is a live requester's vertex. The rule is exact
// for relative atomicity too, which admits instance-level interleavings
// (A depends on B and B on A through different atomic units) that keep
// a committed cluster's members pointing into each other long after
// every live instance has stopped reaching it. Run after every commit
// and abort, it keeps every resident committed instance reachable from
// a live one; under an absolute spec, where one vertex is one
// transaction, that is exactly the committed instances whose in-arcs
// lead back to a live one.
//
// A committed instance keeps, as its witness, the live instance that
// was found reaching it, and while that one stays live the path does
// too: its other vertices are committed ones, which leave the graph
// only unreached, and arcs are only ever added. Once the witness has
// committed, a one-vertex witness still reached passes on its own
// witness, which reaches the whole of it. Otherwise the sweep walks
// back from the instance's last vertex, which its chain reaches from
// every other one, to the first live vertex it meets; a walk that
// meets none has proved every vertex it passed unreachable, and later
// walks stop there.
//
//rsvet:deterministic
func (c *certifier) sweep() {
	c.stamp++
	ready := -1 // the walks' sets are made ready for the first walk
	kept := c.committed[:0]
	for _, inst := range c.committed {
		if c.reached(inst, &ready) {
			kept = append(kept, inst)
		} else {
			c.evict(inst)
		}
	}
	clear(c.committed[len(kept):])
	c.committed = kept
}

// reached reports whether a live vertex reaches the committed instance
// inst, settling its witness for the current sweep.
func (c *certifier) reached(inst *txnInst, ready *int) bool {
	if inst.stamp == c.stamp {
		return inst.witness != nil
	}
	inst.stamp = c.stamp
	w := inst.witness
	if w != nil && !w.live() {
		if w.resident && w.n == 1 && c.reached(w, ready) {
			w = w.witness
		} else {
			w = nil
		}
	}
	if w == nil && len(c.live) > 0 { // else nothing is reached
		w = c.liveAncestor(inst, ready)
	}
	inst.witness = w
	return w != nil
}

// readyWalks sizes the walks' vertex sets to the resident instances'
// span, which holds every vertex a walk can meet because arcs join
// resident vertices only, marks the live vertices, and returns the
// span's low end, from which the sets are indexed.
func (c *certifier) readyWalks() (lo int) {
	lo, hi := math.MaxInt, 0
	for _, inst := range c.live {
		lo, hi = min(lo, inst.first), max(hi, inst.end())
	}
	for _, inst := range c.committed {
		lo, hi = min(lo, inst.first), max(hi, inst.end())
	}
	words := (max(hi-lo, 0) + 63) / 64
	for _, b := range []*graph.Bitset{&c.liveVerts, &c.seen} {
		*b = slices.Grow((*b)[:0], words)[:words]
		b.Reset()
	}
	for _, inst := range c.live {
		for v := inst.first; v < inst.end(); v++ {
			c.liveVerts.Set(v - lo)
		}
	}
	return lo
}

// liveAncestor returns a live instance that reaches the committed
// instance inst, or nil when none does, walking back from inst's last
// vertex. *ready is the walks' sets' low end, or -1 until a walk first
// needs them.
func (c *certifier) liveAncestor(inst *txnInst, ready *int) *txnInst {
	if inst.n == 0 {
		return nil
	}
	walk, found := c.walk[:0], -1
	visit := func(u int) {
		if *ready < 0 {
			*ready = c.readyWalks()
		}
		switch i := u - *ready; {
		case found >= 0 || c.seen.Has(i):
		case c.liveVerts.Has(i):
			found = u
		default:
			c.seen.Set(i)
			walk = append(walk, u)
		}
	}
	last := inst.end() - 1
	c.g.VisitPredecessors(last, visit)
	for k := 0; k < len(walk) && found < 0; k++ {
		c.g.VisitPredecessors(walk[k], visit)
	}
	c.walk = walk
	if found < 0 {
		if *ready >= 0 {
			c.seen.Set(last - *ready)
		}
		return nil
	}
	// The vertices passed are not proved unreachable after all.
	for _, u := range walk {
		c.seen.Clear(u - *ready)
	}
	for _, l := range c.live {
		if l.first <= found && found < l.end() {
			return l
		}
	}
	panic("sched: live vertex with no live instance")
}

// SetLowWater implements Retirer: the engine's low-water mark is the
// pacemaker for epoch work. When it moves, the graph epoch and the
// rebase are each run if due; both decisions are purely count-based so
// replays stay deterministic.
//
//rsvet:deterministic
func (c *certifier) SetLowWater(instance int64) {
	if instance <= c.lowWater {
		return
	}
	c.lowWater = instance
	c.maybeRetire()
	c.maybeRebase()
}

// FlushRetirement implements Retirer: drains the vertex queue and
// rebases unconditionally, so Recover and Finalize leave no
// retirement-pending state behind.
func (c *certifier) FlushRetirement() {
	c.flushRetire()
	c.rebase()
}

// RetireStats implements Retirer.
func (c *certifier) RetireStats() RetireStats {
	return RetireStats{
		GraphEpochs:     c.graphEpochs,
		RetiredVertices: c.retiredVert,
		LiveVertices:    c.g.Len(),
		PendingRetire:   len(c.retireQ),
		Rebases:         c.rebases,
		ExecEntries:     c.execEntries,
		FastPathHits:    c.fastHits,
		FastPathMisses:  c.fastMisses,
	}
}

// maybeRetire runs a graph compaction epoch when the pending queue is
// both big enough in absolute terms and at least half the graph, which
// makes each epoch O(1) amortized per retired vertex.
//
//rsvet:deterministic
func (c *certifier) maybeRetire() {
	if len(c.retireQ) < retireEpochMinVerts || 2*len(c.retireQ) < c.g.Len() {
		return
	}
	c.flushRetire()
}

func (c *certifier) flushRetire() {
	if len(c.retireQ) == 0 {
		return
	}
	res := c.g.Retire(c.retireQ)
	c.retiredVert += int64(res.Retired)
	c.graphEpochs++
	c.retireQ = c.retireQ[:0]
}

// maybeRebase rebases the executed-operation index when it has at
// least doubled since the last rebase, amortizing to O(1) per executed
// operation.
//
//rsvet:deterministic
func (c *certifier) maybeRebase() {
	if c.execEntries >= rebaseMinEntries && c.execEntries >= 2*c.lastRebaseLive {
		c.rebase()
	}
}

// rebase drops the dead part of the executed-operation index. An
// executed operation survives iff its instance is still resident (it
// is then in the instance's ops), or it sits in the reachable suffix of
// its object's history: covering stops at the last non-aborted write
// (the anchor), so entries strictly before the anchor — and aborted
// entries anywhere — can never be a source again. Surviving clocks lose
// their entries for instances that have left the graph, which no
// request would join in any more (see RSGT.absorb).
//
//rsvet:deterministic
func (c *certifier) rebase() {
	if c.execEntries == 0 {
		return
	}
	// Operations of one instance can share a clock (see RSGT.Request),
	// and filtering it for one of them leaves a zeroed tail in the
	// other's view until that one is filtered too.
	gone := func(d dep) bool { return d.src == nil || !d.src.resident }
	live := 0
	//rsvet:allow detlint -- order-insensitive: each object's suffix is computed independently
	for obj, h := range c.objHist {
		hist := *h
		anchor := 0
		for i := len(hist) - 1; i >= 0; i-- {
			if e := hist[i]; e.write && e.inst.alive() {
				anchor = i
				break
			}
		}
		kept := hist[:0]
		for _, e := range hist[anchor:] {
			if !e.inst.alive() {
				continue
			}
			kept = append(kept, e)
			if !e.inst.resident {
				live++
				e.clock = slices.DeleteFunc(e.clock, gone)
			}
		}
		if len(kept) == 0 {
			delete(c.objHist, obj)
			continue
		}
		clear(hist[len(kept):])
		*h = kept
	}
	//rsvet:allow detlint -- order-insensitive: filters each resident instance's clocks independently
	for _, inst := range c.insts {
		live += len(inst.ops)
		for _, e := range inst.ops {
			e.clock = slices.DeleteFunc(e.clock, gone)
		}
	}
	c.execEntries, c.lastRebaseLive = live, live
	c.rebases++
}

// reachTable maintains, per live transaction slot, the set of slots
// reachable from it in the certification graph at transaction
// granularity — the "one clock per lane" half of the vector-clock fast
// path. Arcs only ever run from a source transaction to the live
// requester, so the instance-level closure is restored after each
// request by one pass over the live slots (any slot that already
// reached a changed source absorbs the requester's clock; transitivity
// held before the call, so no other slot needs updating).
//
// The table is conservative by construction: released slots leave
// stale bits in other clocks (extra suspicion, never a missed one),
// and a freshly allocated slot starts with an empty clock, which is
// exact (a new transaction's vertices have no outgoing arcs).
type reachTable struct {
	inUse []bool
	free  []int
	reach []graph.Bitset
	words int
	// scratch sets reused across calls (same width as reach rows).
	delta graph.Bitset
	cmask graph.Bitset
	seen  graph.Bitset
}

func newReachTable() *reachTable {
	return &reachTable{words: 1, delta: make(graph.Bitset, 1), cmask: make(graph.Bitset, 1), seen: make(graph.Bitset, 1)}
}

// alloc returns a slot for a beginning instance, reusing freed slots.
func (rt *reachTable) alloc() int {
	if n := len(rt.free); n > 0 {
		s := rt.free[n-1]
		rt.free = rt.free[:n-1]
		rt.inUse[s] = true
		rt.reach[s].Reset()
		return s
	}
	s := len(rt.inUse)
	rt.inUse = append(rt.inUse, true)
	if (s >> 6) >= rt.words {
		rt.words++
		for i := range rt.reach {
			rt.reach[i] = append(rt.reach[i], 0)
		}
		rt.delta = append(rt.delta, 0)
		rt.cmask = append(rt.cmask, 0)
		rt.seen = append(rt.seen, 0)
	}
	rt.reach = append(rt.reach, make(graph.Bitset, rt.words))
	return s
}

// release frees a finished instance's slot. Stale bits referring to it
// stay in other clocks until overwritten — conservative, see type
// comment.
func (rt *reachTable) release(s int) {
	rt.inUse[s] = false
	rt.free = append(rt.free, s)
}

// reaches reports whether the clock of slot from contains slot to.
func (rt *reachTable) reaches(from, to int) bool { return rt.reach[from].Has(to) }

// recordArcs folds a request's admitted arcs (every source slot ->
// req) into the clocks, restoring the transaction-level transitive
// closure in one pass.
func (rt *reachTable) recordArcs(srcs []int, req int) {
	if len(srcs) == 0 {
		return
	}
	copy(rt.delta, rt.reach[req])
	rt.delta.Set(req)
	rt.cmask.Reset()
	any := false
	for _, s := range srcs {
		if rt.reach[s].UnionWith(rt.delta) {
			rt.cmask.Set(s)
			any = true
		}
	}
	if !any {
		return
	}
	for s, m := range rt.reach {
		if !rt.inUse[s] || !m.Intersects(rt.cmask) {
			continue
		}
		m.UnionWith(rt.delta)
	}
}
