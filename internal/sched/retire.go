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
// one certifier. It retires the vertices of finished transactions in
// count-based epoch batches and certifies the common no-suspected-cycle
// case with a conservative vector-clock test, so scheduler memory
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
	// strandedSweepMinInsts is the minimum number of committed
	// instances still resident in the graph before a stranded-cluster
	// reachability sweep runs; combined with the
	// resident >= 2*last-sweep-survivors rule the sweep cost is O(1)
	// amortized per committed transaction.
	strandedSweepMinInsts = 64
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

// Add accumulates other into s (for aggregating sharded or embedded
// protocols).
func (s *RetireStats) Add(other RetireStats) {
	s.GraphEpochs += other.GraphEpochs
	s.RetiredVertices += other.RetiredVertices
	s.LiveVertices += other.LiveVertices
	s.PendingRetire += other.PendingRetire
	s.Rebases += other.Rebases
	s.ExecEntries += other.ExecEntries
	s.FastPathHits += other.FastPathHits
	s.FastPathMisses += other.FastPathMisses
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
	// stranded committed instances, overdue rebase) immediately.
	FlushRetirement()
	// RetireStats reports the current bounded-memory state.
	RetireStats() RetireStats
}

// txnInst is one transaction instance of a graph protocol. The object
// histories refer to it by pointer, so whether a recorded source still
// has vertices in the graph is read off the instance itself: resident
// is cleared when the instance leaves the graph (abort, prune, sweep)
// and never set again, because instance numbers are never reused.
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

	// Scratch of the request whose stamp matches: the instance has been
	// visited as a source, and (RSGT) its position in RSGT.frontier.
	stamp      uint64
	frontierAt int
}

func (in *txnInst) vertex(seq int) int { return in.first + seq }

// end is one past the instance's last vertex.
func (in *txnInst) end() int { return in.first + int(in.n) }

// alive reports whether the instance's executed operations still count
// as conflict sources (it has not aborted).
func (in *txnInst) alive() bool { return in.resident || in.committed }

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
// arcs a request induces: everything else — Commit, Abort, pruning, the
// stranded sweep, the history rebase, the clock table, the retirement
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
	// committed lists the committed resident instances in ascending id
	// order: the prune and stranded-sweep candidates.
	committed []*txnInst
	// objHist is, per object, the executed operations on it in execution
	// order (the conflict sources of the next access), held by pointer
	// so that recording one needs no second map access.
	objHist map[string]*[]*execOp
	// stamp numbers the request being decided (see txnInst.stamp);
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

	// execEntries counts the executed operations the index holds,
	// lastRebaseLive is what the last rebase kept of them, and
	// lastSweepResident is len(committed) after the last stranded-cluster
	// sweep (the doubling bases for the next rebase and sweep).
	execEntries       int
	lastRebaseLive    int
	rebases           int64
	lastSweepResident int
	// The stranded sweep's reached set and stack, reused across sweeps.
	reached    graph.Bitset
	sweepStack []int

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
	c.insts[instance] = &txnInst{
		id: instance, program: program, first: c.g.AddChain(n), n: int32(n), resident: true,
		ops: make([]*execOp, 0, program.Len()), slot: c.rt.alloc(), minEntry: math.MaxInt,
	}
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
	if !c.rt.seen.has(srcSlot) {
		c.rt.seen.set(srcSlot)
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
		c.rt.seen.clear(s)
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
	at := sort.Search(len(c.committed), func(i int) bool { return c.committed[i].id > instance })
	c.committed = slices.Insert(c.committed, at, inst)
	c.prune()
	c.maybeRetire()
	c.maybeSweep()
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
	c.evict(inst)
	c.prune()
	c.maybeRetire()
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
	inst.ops = nil
}

// evictCommitted evicts the committed resident instances, visited in
// ascending id order, for which gone reports true, and reports whether
// there was one.
func (c *certifier) evictCommitted(gone func(*txnInst) bool) bool {
	kept := c.committed[:0]
	for _, inst := range c.committed {
		if gone(inst) {
			c.evict(inst)
		} else {
			kept = append(kept, inst)
		}
	}
	evicted := len(kept) < len(c.committed)
	clear(c.committed[len(kept):])
	c.committed = kept
	return evicted
}

// prune removes committed instances none of whose vertices has an
// incoming arc from another instance: new arcs always terminate at
// live requesters (or their unit boundaries), so a committed source
// can never rejoin a cycle. Evicting one can clean the next, hence the
// fixed point.
func (c *certifier) prune() {
	for c.evictCommitted(c.noForeignInArc) {
	}
}

func (c *certifier) noForeignInArc(inst *txnInst) bool {
	return inst.n == 0 || !c.g.HasPredecessorOutside(inst.first, inst.end()-1)
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

// FlushRetirement implements Retirer: sweeps stranded instances,
// drains the vertex queue and rebases unconditionally, so Recover and
// Finalize leave no retirement-pending state behind.
func (c *certifier) FlushRetirement() {
	c.sweepStranded()
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

// compactionDue is the pacing rule the history compactions share (the
// rebase and the stranded sweep): at least floor items, and at least
// twice what the last compaction kept, which amortizes each pass to
// O(1) per item.
func compactionDue(n, floor, lastKept int) bool {
	return n >= floor && n >= 2*lastKept
}

// maybeSweep runs a stranded-cluster sweep when enough committed
// instances sit in the graph and their count has at least doubled
// since the last sweep, amortizing the O(live graph) reachability walk
// to O(1) per committed transaction.
//
//rsvet:deterministic
func (c *certifier) maybeSweep() {
	if compactionDue(len(c.committed), strandedSweepMinInsts, c.lastSweepResident) {
		c.sweepStranded()
		c.maybeRetire()
	}
}

// sweepStranded releases committed instances none of whose vertices is
// reachable from a live instance's vertex. prune handles the common
// case — a committed instance with no foreign in-arc — but relative
// atomicity admits instance-level interleavings (A depends on B and B
// on A through different atomic units) that keep whole clusters of
// committed transactions mutually dirty forever, even though the
// vertex graph stays acyclic. Such a cluster is still permanently
// cycle-free once no live vertex reaches it: arcs into a finished
// instance all predate its finish, so a path from any later
// transaction into the cluster would have to run through a vertex that
// is live right now — and none reaches it. Skipping future arcs out of
// swept sources (only resident sources induce arcs) is sound for the
// same reason: a cycle through such an arc u -> v needs a path v -> u,
// and v is always a live requester's vertex. Under an absolute spec,
// where one vertex is one transaction, the sweep finds nothing: every
// committed instance prune leaves has an in-arc, and following in-arcs
// back through the acyclic graph ends at a live instance.
func (c *certifier) sweepStranded() {
	if len(c.committed) == 0 {
		return
	}
	// Arcs join resident vertices only, so the resident instances' span
	// holds everything reachable; the reached set is indexed from its low
	// end.
	lo, hi := math.MaxInt, 0
	//rsvet:allow detlint -- order-insensitive: a minimum and a maximum
	for _, inst := range c.insts {
		lo, hi = min(lo, inst.first), max(hi, inst.end())
	}
	words := (max(hi-lo, 0) + 63) / 64
	c.reached = slices.Grow(c.reached[:0], words)[:words]
	c.reached.Reset()
	stack := c.sweepStack[:0]
	visit := func(v int) {
		if !c.reached.Has(v - lo) {
			c.reached.Set(v - lo)
			stack = append(stack, v)
		}
	}
	//rsvet:allow detlint -- order-insensitive: the reachable set does not depend on the order of its roots
	for _, inst := range c.insts {
		if inst.committed {
			continue
		}
		for v := inst.first; v < inst.end(); v++ {
			visit(v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.g.VisitSuccessors(v, visit)
	}
	c.sweepStack = stack
	c.evictCommitted(func(inst *txnInst) bool {
		for v := inst.first; v < inst.end(); v++ {
			if c.reached.Has(v - lo) {
				return false
			}
		}
		return true
	})
	c.lastSweepResident = len(c.committed)
}

// maybeRebase rebases the executed-operation index when it has at
// least doubled since the last rebase, amortizing to O(1) per executed
// operation.
//
//rsvet:deterministic
func (c *certifier) maybeRebase() {
	if compactionDue(c.execEntries, rebaseMinEntries, c.lastRebaseLive) {
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

// slotMask is a fixed-width bitmask over live transaction slots. All
// masks in one reachTable share the same word length, growing together.
type slotMask []uint64

func (m slotMask) has(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
func (m slotMask) set(i int)      { m[i>>6] |= 1 << (uint(i) & 63) }
func (m slotMask) clear(i int)    { m[i>>6] &^= 1 << (uint(i) & 63) }

func (m slotMask) reset() {
	for i := range m {
		m[i] = 0
	}
}

// orWith unions other into m, reporting whether m changed.
func (m slotMask) orWith(other slotMask) bool {
	changed := false
	for i, w := range other {
		if m[i]|w != m[i] {
			m[i] |= w
			changed = true
		}
	}
	return changed
}

func (m slotMask) intersects(other slotMask) bool {
	for i, w := range other {
		if m[i]&w != 0 {
			return true
		}
	}
	return false
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
	reach []slotMask
	words int
	// scratch masks reused across calls (same width as reach rows).
	delta slotMask
	cmask slotMask
	seen  slotMask
}

func newReachTable() *reachTable {
	return &reachTable{words: 1, delta: make(slotMask, 1), cmask: make(slotMask, 1), seen: make(slotMask, 1)}
}

// alloc returns a slot for a beginning instance, reusing freed slots.
func (rt *reachTable) alloc() int {
	if n := len(rt.free); n > 0 {
		s := rt.free[n-1]
		rt.free = rt.free[:n-1]
		rt.inUse[s] = true
		rt.reach[s].reset()
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
	rt.reach = append(rt.reach, make(slotMask, rt.words))
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
func (rt *reachTable) reaches(from, to int) bool { return rt.reach[from].has(to) }

// recordArcs folds a request's admitted arcs (every source slot ->
// req) into the clocks, restoring the transaction-level transitive
// closure in one pass.
func (rt *reachTable) recordArcs(srcs []int, req int) {
	if len(srcs) == 0 {
		return
	}
	copy(rt.delta, rt.reach[req])
	rt.delta.set(req)
	rt.cmask.reset()
	any := false
	for _, s := range srcs {
		if rt.reach[s].orWith(rt.delta) {
			rt.cmask.set(s)
			any = true
		}
	}
	if !any {
		return
	}
	for s, m := range rt.reach {
		if !rt.inUse[s] || !m.intersects(rt.cmask) {
			continue
		}
		m.orWith(rt.delta)
	}
}
