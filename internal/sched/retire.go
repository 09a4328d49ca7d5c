package sched

import "relser/internal/graph"

// Bounded-memory certification: the graph-based protocols (RSGT, SGT,
// and RAL via its embedded RSGT) share one certifier. It retires the
// vertices of finished transactions in count-based epoch batches and
// certifies the common no-suspected-cycle case with a conservative
// vector-clock test, so scheduler memory tracks the live transaction
// set instead of history.
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
	// reachability sweep runs (RSGT); combined with the
	// resident >= 2*last-sweep-survivors rule the sweep cost is O(1)
	// amortized per committed transaction.
	strandedSweepMinInsts = 64
)

// RetireStats reports a protocol's bounded-memory state: graph size,
// retirement progress, and vector-clock fast-path effectiveness.
type RetireStats struct {
	// Enabled reports whether retirement is active on the protocol.
	Enabled bool
	// GraphEpochs counts graph compaction epochs run.
	GraphEpochs int64
	// RetiredVertices counts vertices removed from the graph.
	RetiredVertices int64
	// LiveVertices is the graph's current vertex count.
	LiveVertices int
	// PendingRetire counts vertices queued for the next epoch.
	PendingRetire int
	// Rebases counts dependency-index rebase epochs (RSGT) or history
	// sweeps (SGT).
	Rebases int64
	// ExecEntries is the current dependency-tracking history length.
	ExecEntries int
	// FastPathHits counts requests certified by the vector-clock test
	// alone (no cycle sweep).
	FastPathHits int64
	// FastPathMisses counts requests where the clocks suspected a cycle
	// and the full RSG insert ran.
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
	s.Enabled = s.Enabled || other.Enabled
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
// drives it: SetRetirement at configuration, SetLowWater from the
// Admit/Commit stages (the pacemaker for epoch work), FlushRetirement
// from Recover/Finalize so pending state unwinds deterministically.
//
// Lifecycle discipline: every method is a lifecycle call in the sense
// of the Protocol contract — the driver never invokes them
// concurrently with Request.
type Retirer interface {
	// SetRetirement enables or disables retirement. It must be called
	// before the first Begin; changing the setting afterwards panics
	// (the vector-clock tables must observe every arc from graph birth).
	SetRetirement(enabled bool)
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

// SetRetirement configures retirement on p if the protocol supports
// it; protocols without graph state are left alone. The Attach analog
// for the retirement lifecycle.
func SetRetirement(p Protocol, enabled bool) {
	if r, ok := p.(Retirer); ok {
		r.SetRetirement(enabled)
	}
}

// certifier is the one place an arc batch is admitted into a
// certification graph (§3 of the paper: insert the request's arcs,
// refuse on a cycle). RSGT and SGT embed it and differ only in what a
// vertex is and which arcs a request induces; the graph, the clock
// table, the retirement queue and the epoch rule live here.
//
// A request is a batch: the protocol calls arc for every arc the
// operation induces (all run from a source instance into the
// requester), then admit. With retirement on, an arc src -> requester
// can only close a cycle if the requester already reaches src, which
// the requester's clock over-approximates; an unsuspected batch is
// appended without any cycle sweep (O(1) amortized per arc), a
// suspected one takes the complete batched Pearce–Kelly insert, which
// rolls itself back atomically on a cycle. Which of the two runs never
// depends on whether a tracer is attached: evidence for a refusal is
// reconstructed afterwards by explainRefusal.
type certifier struct {
	g *graph.Incremental

	retireOn bool
	// begun freezes retireOn: once an instance has (or has not) been
	// given a clock slot, every later instance must be treated alike,
	// because the clocks have to observe every arc from graph birth.
	begun    bool
	lowWater int64
	rt       *reachTable
	// retireQ holds finished instances' vertices until a count-based
	// epoch compacts the graph.
	retireQ []int

	graphEpochs int64
	retiredVert int64
	fastHits    int64
	fastMisses  int64

	// The current request's batch, reused across requests.
	arcs     [][2]int
	srcSlots []int
	suspect  bool
}

func newCertifier() certifier {
	return certifier{g: graph.NewIncremental(0), rt: newReachTable()}
}

// SetRetirement implements Retirer. Re-asserting the current setting
// is always allowed (the engine does so on every run); changing it
// once an instance has begun would leave instances without clock
// slots, which only a caller bug can produce.
func (c *certifier) SetRetirement(enabled bool) {
	if c.begun && enabled != c.retireOn {
		panic("sched: SetRetirement changed after the first Begin")
	}
	c.retireOn = enabled
}

// allocSlot gives a beginning instance its clock slot (also kept in
// rt.slotOf); -1 with retirement off, where no clocks are kept.
func (c *certifier) allocSlot(instance int64) int {
	c.begun = true
	if !c.retireOn {
		return -1
	}
	return c.rt.alloc(instance)
}

// release drops a finished instance from the graph: its n vertices,
// numbered consecutively from first, lose their arcs now and join the
// next retirement epoch, and its clock slot returns to the free list.
func (c *certifier) release(instance int64, first, n int) {
	for v := first; v < first+n; v++ {
		c.g.IsolateVertex(v)
	}
	if !c.retireOn {
		return
	}
	for v := first; v < first+n; v++ {
		c.retireQ = append(c.retireQ, v)
	}
	c.rt.release(instance)
}

// arc adds u -> w, running from the instance in srcSlot into the
// requester in reqSlot, to the current batch (the slots are ignored
// with retirement off). mayReach is the protocol's refinement of the
// suspicion test: false when it knows no path from the requester can
// arrive at or before u even if the requester's clock has the source.
func (c *certifier) arc(u, w, srcSlot, reqSlot int, mayReach bool) {
	c.arcs = append(c.arcs, [2]int{u, w})
	if !c.retireOn {
		return
	}
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
	if c.retireOn && !suspect {
		c.fastHits++
		c.g.AppendArcs(arcs)
	} else {
		// Suspected, or retirement off (no clocks, so never suspected
		// and no sources recorded below).
		if suspect {
			c.fastMisses++
		}
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

// advanceLowWater records the engine's low-water mark — the pacemaker
// for epoch work — and reports whether it moved. Epoch decisions are
// purely count-based so replays stay deterministic.
//
//rsvet:deterministic
func (c *certifier) advanceLowWater(instance int64) bool {
	if instance <= c.lowWater {
		return false
	}
	c.lowWater = instance
	c.maybeRetire()
	return true
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

// compactionDue is the pacing rule the protocols' own history
// compactions share (RSGT's rebase and stranded sweep, SGT's history
// sweep): at least floor items, and at least twice what the last
// compaction kept, which amortizes each pass to O(1) per item.
func (c *certifier) compactionDue(n, floor, lastKept int) bool {
	return c.retireOn && n >= floor && n >= 2*lastKept
}

// stats reports RetireStats; the protocol supplies its own history
// compaction count and current history length.
func (c *certifier) stats(compactions int64, entries int) RetireStats {
	return RetireStats{
		Enabled:         c.retireOn,
		GraphEpochs:     c.graphEpochs,
		RetiredVertices: c.retiredVert,
		LiveVertices:    c.g.Len(),
		PendingRetire:   len(c.retireQ),
		Rebases:         compactions,
		ExecEntries:     entries,
		FastPathHits:    c.fastHits,
		FastPathMisses:  c.fastMisses,
	}
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
	slotOf map[int64]int
	instAt []int64 // slot -> instance, -1 when free
	free   []int
	reach  []slotMask
	words  int
	// scratch masks reused across calls (same width as reach rows).
	delta slotMask
	cmask slotMask
	seen  slotMask
}

func newReachTable() *reachTable {
	return &reachTable{slotOf: make(map[int64]int), words: 1, delta: make(slotMask, 1), cmask: make(slotMask, 1), seen: make(slotMask, 1)}
}

// alloc assigns a slot to the instance, reusing freed slots.
func (rt *reachTable) alloc(inst int64) int {
	if n := len(rt.free); n > 0 {
		s := rt.free[n-1]
		rt.free = rt.free[:n-1]
		rt.instAt[s] = inst
		rt.reach[s].reset()
		rt.slotOf[inst] = s
		return s
	}
	s := len(rt.instAt)
	rt.instAt = append(rt.instAt, inst)
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
	rt.slotOf[inst] = s
	return s
}

// release frees the instance's slot. Stale bits referring to it stay
// in other clocks until overwritten — conservative, see type comment.
func (rt *reachTable) release(inst int64) {
	s, ok := rt.slotOf[inst]
	if !ok {
		return
	}
	delete(rt.slotOf, inst)
	rt.instAt[s] = -1
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
		if rt.instAt[s] < 0 || !m.intersects(rt.cmask) {
			continue
		}
		m.orWith(rt.delta)
	}
}
