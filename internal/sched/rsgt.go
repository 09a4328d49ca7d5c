package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"relser/internal/core"
	"relser/internal/graph"
	"relser/internal/trace"
)

// RSGT is relative serialization graph testing — the concurrency
// control protocol §3 of the paper proposes on top of its graph tool.
// It maintains the relative serialization graph (Definition 3)
// incrementally as operations execute:
//
//   - at Begin, the instance's operations become vertices connected by
//     I-arcs (the program, and hence every atomic-unit boundary, is
//     declared up front);
//   - at Request, the operation's dependency clock is computed — for
//     every other resident instance, the latest operation the request
//     transitively depends on (the join of the clocks of the same
//     covering predecessors the offline checker uses). A clock entry the
//     requester's previous operation already held induces nothing new;
//     for each entry u -> v the object history added or raised (a
//     staircase pair) the F-arc PushForward(u, txn(v)) -> v and the
//     B-arc u -> PullBackward(v, txn(u)) are inserted, and no D-arc.
//     That graph is THEORY.md §4's G″: every other arc of Definition 3
//     is a path through it and I-arcs, so it has the same reachability
//     with at most two arcs per clock entry a request advances;
//   - if any insertion would close a cycle, the request is rejected
//     with Abort: execution has already fixed the offending dependency
//     order, so no amount of waiting can remove the cycle (arcs are
//     only ever removed by pruning committed source transactions, which
//     by definition are not on cycles).
//
// By Theorem 1, the admitted execution is relatively serializable at
// every prefix.
//
// Relative atomicity specifications come from an AtomicityOracle,
// queried lazily per ordered pair of live instances and memoized.
type RSGT struct {
	traced
	certifier
	oracle AtomicityOracle

	insts map[int64]*rsgtInst // resident instances: vertices in the graph
	// committed lists the committed resident instances in ascending id
	// order: the prune and stranded-sweep candidates.
	committed []*rsgtInst

	// objHist is, per object, the executed operations on it in execution
	// order (the depends-on sources of the next access).
	objHist map[string][]*execOp

	// frontier is the dependency clock of the request being decided,
	// reused across requests; stamp numbers the request so that each
	// source instance's frontierAt is valid only for the current one.
	frontier []dep
	stamp    uint64
	// prior is the frontier's seqs once the requester's previous
	// operation is joined in: entries still equal to it afterwards were
	// not advanced by the request and induce no arc.
	prior []int

	// Bounded-memory state beyond the shared certifier (see Retirer):
	// execEntries counts the executed operations the dependency index
	// holds, lastRebaseLive is what the last rebase kept of them, and
	// lastSweepResident is len(committed) after the last stranded-cluster
	// sweep (the doubling bases for the next rebase and sweep).
	execEntries       int
	lastRebaseLive    int
	rebases           int64
	lastSweepResident int
}

// rsgtInst is one transaction instance. The dependency index refers to
// it by pointer, so whether a recorded source still has vertices in the
// graph is read off the instance itself: resident is cleared when the
// instance leaves the graph (abort, prune, sweep) and never set again,
// because instance numbers are never reused.
type rsgtInst struct {
	id      int64
	program *core.Transaction
	first   int // graph vertex of sequence 0; the rest follow consecutively

	resident  bool
	committed bool // aborted is !resident && !committed

	// ops[seq] is the executed operation at seq while resident.
	ops []*execOp
	// cuts memoizes the oracle's unit boundaries of this program relative
	// to an observer instance.
	cuts map[int64][]int

	// Fast-path clock state: the instance's reachTable slot (-1 with
	// retirement off) and the minimum sequence of any arc head ever
	// added into the instance (math.MaxInt until the first one). A path
	// entering this instance from outside can only reach sequences
	// >= minEntry, because within an instance only I-arcs (sequence-
	// forward) connect vertices.
	slot     int
	minEntry int

	// Scratch of the request whose stamp matches: this instance's
	// position in RSGT.frontier.
	stamp      uint64
	frontierAt int
}

func (in *rsgtInst) vertex(seq int) int { return in.first + seq }

// end is one past the instance's last vertex.
func (in *rsgtInst) end() int { return in.first + in.program.Len() }

// alive reports whether the instance's executed operations still count
// as depends-on sources (it has not aborted).
func (in *rsgtInst) alive() bool { return in.resident || in.committed }

// dep is one entry of a dependency clock: the highest sequence of src
// the clock's operation transitively depends on.
type dep struct {
	src *rsgtInst
	seq int
}

// execOp is one executed operation together with its dependency clock:
// for every other instance that was resident when it executed, the
// latest operation it depends on (THEORY.md §4: earlier ones induce
// only arcs the latest one's arcs imply). Clocks are transitively
// closed when built, so a later request that depends on this operation
// joins the clock in and never follows it further.
type execOp struct {
	inst  *rsgtInst
	seq   int
	write bool
	clock []dep
}

// NewRSGT returns the paper's protocol under the given specification
// oracle.
func NewRSGT(oracle AtomicityOracle) *RSGT {
	return &RSGT{
		certifier: newCertifier(),
		oracle:    oracle,
		insts:     make(map[int64]*rsgtInst),
		objHist:   make(map[string][]*execOp),
	}
}

// Name implements Protocol.
func (p *RSGT) Name() string { return "rsgt" }

// Begin implements Protocol: materialize the program's vertices and
// I-arcs.
func (p *RSGT) Begin(instance int64, program *core.Transaction) {
	if _, ok := p.insts[instance]; ok {
		return
	}
	n := program.Len()
	inst := &rsgtInst{
		id: instance, program: program, resident: true,
		ops: make([]*execOp, 0, n), slot: p.allocSlot(instance), minEntry: math.MaxInt,
	}
	for seq := 0; seq < n; seq++ {
		if v := p.g.AddVertex(); seq == 0 {
			inst.first = v // the rest follow consecutively
		}
	}
	for seq := 0; seq+1 < n; seq++ {
		if err := p.g.AddArc(inst.vertex(seq), inst.vertex(seq+1)); err != nil {
			panic(fmt.Sprintf("sched: I-arc on fresh vertices cycled: %v", err)) // unreachable
		}
	}
	p.insts[instance] = inst
}

// Request implements Protocol.
func (p *RSGT) Request(req OpRequest) Decision {
	inst := p.insts[req.Instance]
	if inst == nil {
		panic(fmt.Sprintf("sched: Request for unknown instance %d", req.Instance))
	}
	if req.Seq != len(inst.ops) {
		panic(fmt.Sprintf("sched: instance %d requested seq %d, expected %d", req.Instance, req.Seq, len(inst.ops)))
	}
	// Dependency clock of the new operation: the join of its covering
	// predecessors — the instance's previous op, the last relevant write,
	// and (for writes) the reads since it.
	p.stamp++
	p.frontier = p.frontier[:0]
	write := req.Op.Kind == core.WriteOp
	if req.Seq > 0 {
		p.absorb(inst, inst.ops[req.Seq-1])
	}
	p.prior = p.prior[:0]
	for _, d := range p.frontier {
		p.prior = append(p.prior, d.seq)
	}
	hist := p.objHist[req.Op.Object]
	for i := len(hist) - 1; i >= 0; i-- {
		e := hist[i]
		if !e.inst.alive() {
			continue // aborted
		}
		if e.write || write {
			p.absorb(inst, e)
		}
		if e.write {
			break
		}
	}

	// The request's F/B delta is one certifier batch. Every new arc
	// runs from a source instance A into this requester, so a cycle
	// needs an existing path back from the requester into A reaching a
	// sequence <= the arc's tail. The clocks over-approximate exactly
	// that: the path exists only if reach[requester] contains A
	// (instance-level closure) and the tail is >= minEntry[A] (the
	// lowest sequence any outside path can reach in A).
	minHead := math.MaxInt
	for i, d := range p.frontier { // join kept only resident sources other than inst
		if i < len(p.prior) && d.seq == p.prior[i] {
			continue // implied through the requester's previous operation
		}
		for _, a := range p.induced(d.src, d.seq, inst, req.Seq) {
			p.arc(d.src.vertex(a.tail), inst.vertex(a.head), d.src.slot, inst.slot, a.tail >= d.src.minEntry)
			minHead = min(minHead, a.head)
		}
	}
	if refused := p.admit(inst.slot); refused != nil {
		if p.tr.Wants(trace.KindCycleReject) {
			p.explainReject(req, refused)
		}
		// Execution has already fixed the offending dependency order,
		// so no amount of waiting can remove the cycle.
		return Abort
	}
	inst.minEntry = min(inst.minEntry, minHead)

	// Admission: record execution.
	e := &execOp{inst: inst, seq: req.Seq, write: write, clock: slices.Clone(p.frontier)}
	inst.ops = append(inst.ops, e)
	p.objHist[req.Op.Object] = append(hist, e)
	p.execEntries++
	p.maybeRebase()
	return Grant
}

// absorb joins executed operation e, and everything it depends on, into
// the frontier of inst's current request by pointwise maximum. Entries
// of instances that have left the graph are dropped here: they induce
// no arc (see join), and what they depended on is already in
// e's clock, which was closed when e executed.
func (p *RSGT) absorb(inst *rsgtInst, e *execOp) {
	p.join(inst, e.inst, e.seq)
	for _, d := range e.clock {
		p.join(inst, d.src, d.seq)
	}
}

// join raises the frontier's entry for src to seq. Sources that are no
// longer resident are left out, for they induce no arc: a
// committed-and-pruned source's vertices are graph sources, so arcs
// from them can never close a cycle. Aborted sources can appear
// transitively (a live op that depended on a later-aborted op keeps
// what that op depended on — conservative: may cost an extra abort,
// never admits an incorrect schedule).
func (p *RSGT) join(inst, src *rsgtInst, seq int) {
	if !src.resident || src == inst {
		return
	}
	if src.stamp != p.stamp {
		src.stamp, src.frontierAt = p.stamp, len(p.frontier)
		p.frontier = append(p.frontier, dep{src, seq})
	} else if f := &p.frontier[src.frontierAt]; seq > f.seq {
		f.seq = seq
	}
}

// rsgArc is one arc between two instances, by sequence: tail in the
// source instance, head in the dependent one.
type rsgArc struct{ tail, head int }

// fb is the order in which induced generates a staircase pair's arcs,
// so position i of a request's batch has kind fb[i%len(fb)].
var fb = [2]core.ArcKind{core.FArc, core.BArc}

// induced returns the arcs RSGT inserts for one staircase pair —
// operation v = seq of inst depends on operation u = srcSeq of src,
// later in src than anything an earlier operation of inst depends on:
// the F-arc PushForward(u, txn(v)) -> v from the last operation of u's
// atomic unit relative to inst, and the B-arc u -> PullBackward(v,
// txn(u)) to the first operation of v's atomic unit relative to src.
// The pair's D-arc u -> v is the path u ->I* PushForward(u, txn(v)) -> v.
func (p *RSGT) induced(src *rsgtInst, srcSeq int, inst *rsgtInst, seq int) [len(fb)]rsgArc {
	_, fu := unitBounds(p.cuts(src, inst), src.program.Len(), srcSeq)
	bv, _ := unitBounds(p.cuts(inst, src), inst.program.Len(), seq)
	return [len(fb)]rsgArc{{fu, seq}, {srcSeq, bv}}
}

// rsgtVertex names a resident graph vertex by owner and sequence.
type rsgtVertex struct {
	inst *rsgtInst
	seq  int
}

func (p *RSGT) owners() map[int]rsgtVertex {
	owners := make(map[int]rsgtVertex)
	for _, in := range p.insts {
		for seq := range in.program.Len() {
			owners[in.vertex(seq)] = rsgtVertex{inst: in, seq: seq}
		}
	}
	return owners
}

// deriveKinds derives the I/F/B label of the live arc u -> w when a
// cycle or snapshot is rendered, instead of storing a label per arc in
// lock-step with the graph. Within an instance only I-arcs exist;
// across instances the arc was induced by a clock entry for u's
// instance that some operation of w's advanced over its previous
// operation's, so regenerating those arcs and keeping the ones that
// land on (u, w) gives the same union of kinds the insertions carried.
func (p *RSGT) deriveKinds(u, w rsgtVertex) core.ArcKind {
	if u.inst == w.inst {
		return core.IArc
	}
	var mask core.ArcKind
	// F-arcs end at the dependent operation, B-arcs at the start of its
	// unit: never after it.
	for _, e := range w.inst.ops[min(w.seq, len(w.inst.ops)):] {
		seq := clockSeq(e.clock, u.inst)
		if seq < 0 || e.seq > 0 && seq == clockSeq(w.inst.ops[e.seq-1].clock, u.inst) {
			continue
		}
		for k, a := range p.induced(u.inst, seq, w.inst, e.seq) {
			if a.tail == u.seq && a.head == w.seq {
				mask |= fb[k]
			}
		}
	}
	return mask
}

// clockSeq returns clock's entry for src, or -1 when it has none.
func clockSeq(clock []dep, src *rsgtInst) int {
	for _, d := range clock {
		if d.src == src {
			return d.seq
		}
	}
	return -1
}

// explainReject emits a cycle-reject event naming the concrete RSG
// cycle the refused batch would have closed. The arcs this request
// inserted before the refused one are in the graph while the event is
// built but not in the recorded dependencies, so their kinds come from
// their batch position.
func (p *RSGT) explainReject(req OpRequest, refused [][2]int) {
	p.explainRefusal(refused, func(i int, path []int) {
		kind := fb[i%len(fb)]
		ev := trace.Event{
			Kind:     trace.KindCycleReject,
			Protocol: p.Name(),
			Instance: req.Instance,
			Txn:      int(req.Op.Txn),
			Seq:      req.Seq,
			Op:       req.Op.String(),
			Object:   req.Op.Object,
			Reason:   fmt.Sprintf("admitting %s would add an RSG %s-arc closing a cycle", req.Op, kind),
		}
		pending := make(map[[2]int]core.ArcKind, i)
		for j, a := range refused[:i] {
			pending[a] |= fb[j%len(fb)]
		}
		owners := p.owners()
		cyc := &trace.Cycle{}
		for k, vert := range path {
			o := owners[vert]
			cyc.Nodes = append(cyc.Nodes, trace.CycleNode{Instance: o.inst.id, Txn: int(o.inst.program.ID), Seq: o.seq, Op: o.inst.program.Op(o.seq).String()})
			if k+1 < len(path) {
				mask := p.deriveKinds(o, owners[path[k+1]]) | pending[[2]int{vert, path[k+1]}]
				cyc.Arcs = append(cyc.Arcs, trace.CycleArc{From: k, To: k + 1, Kind: mask.String()})
			}
		}
		cyc.Arcs = append(cyc.Arcs, trace.CycleArc{From: len(path) - 1, To: 0, Kind: kind.String()})
		ev.Cycle = cyc
		p.tr.Emit(ev)
		if p.tr.DotSink != nil {
			p.tr.EmitDot("cyclereject", p.dotSnapshot(pending))
		}
	})
}

// dotSnapshot renders the live relative serialization graph in
// Graphviz DOT: vertices are the resident instances' operations, arcs
// carry their I/F/B kind masks. pending labels the arcs of a request
// that is being refused (see explainReject); this is the snapshot
// emitted at every rejection point.
func (p *RSGT) dotSnapshot(pending map[[2]int]core.ArcKind) string {
	var d graph.DotGraph
	d.Name = "rsgt"
	if n := p.g.RetiredCount(); n > 0 {
		// Retired vertices collapse into one stable-prefix node instead
		// of rendering (or panicking on) remapped IDs.
		d.AddNode(-1, fmt.Sprintf("stable prefix (%d retired)", n), map[string]string{"shape": "box", "style": "dashed"})
	}
	ids := sortedInstances(p.insts)
	for _, id := range ids {
		in := p.insts[id]
		for seq := range in.program.Len() {
			d.AddNode(in.vertex(seq), fmt.Sprintf("%s #%d", in.program.Op(seq), id), nil)
		}
	}
	owners := p.owners()
	for _, id := range ids {
		in := p.insts[id]
		for vert := in.first; vert < in.end(); vert++ {
			for _, s := range p.g.Successors(vert) {
				mask := p.deriveKinds(owners[vert], owners[s]) | pending[[2]int{vert, s}]
				d.AddEdge(vert, s, mask.String(), nil)
			}
		}
	}
	return d.String()
}

// cuts memoizes the oracle's unit boundaries of a's program relative
// to observer b; the memo lives and dies with a.
func (p *RSGT) cuts(a, b *rsgtInst) []int {
	c, ok := a.cuts[b.id]
	if !ok {
		if a.cuts == nil {
			a.cuts = make(map[int64][]int)
		}
		c = p.oracle.Cuts(a.program, b.program)
		a.cuts[b.id] = c
	}
	return c
}

// CanCommit implements Protocol.
func (p *RSGT) CanCommit(int64) bool { return true }

// Commit implements Protocol.
func (p *RSGT) Commit(instance int64) {
	inst := p.insts[instance]
	if inst == nil || inst.committed {
		return
	}
	inst.committed = true
	at := sort.Search(len(p.committed), func(i int) bool { return p.committed[i].id > instance })
	p.committed = slices.Insert(p.committed, at, inst)
	p.prune()
	p.maybeRetire()
	p.maybeSweep()
}

// Abort implements Protocol: drop the instance's vertices from the
// graph. Its executed operations stay in the object histories as dead
// entries (skipped during source discovery) until the next rebase; the
// driver undoes their store effects and cascades dependents.
func (p *RSGT) Abort(instance int64) {
	inst := p.insts[instance]
	if inst == nil {
		return
	}
	p.evict(inst)
	p.prune()
	p.maybeRetire()
}

// evict removes a finished instance from the resident set and hands
// its vertices and clock slot to the certifier. What only a resident
// instance needs is dropped with it, so an operation of it that stays
// in an object history pins just the instance header.
func (p *RSGT) evict(inst *rsgtInst) {
	p.release(inst.id, inst.first, inst.program.Len())
	delete(p.insts, inst.id)
	inst.resident = false
	inst.ops, inst.cuts = nil, nil
}

// evictCommitted evicts the committed resident instances, visited in
// ascending id order, for which gone reports true, and reports whether
// there was one.
func (p *RSGT) evictCommitted(gone func(*rsgtInst) bool) bool {
	kept := p.committed[:0]
	for _, inst := range p.committed {
		if gone(inst) {
			p.evict(inst)
		} else {
			kept = append(kept, inst)
		}
	}
	evicted := len(kept) < len(p.committed)
	clear(p.committed[len(kept):])
	p.committed = kept
	return evicted
}

// prune removes committed instances none of whose vertices has an
// incoming arc from another instance: new arcs always terminate at
// live requesters (or their unit boundaries), so a committed source
// can never rejoin a cycle. Evicting one can clean the next, hence the
// fixed point.
func (p *RSGT) prune() {
	for p.evictCommitted(p.noForeignInArc) {
	}
}

func (p *RSGT) noForeignInArc(inst *rsgtInst) bool {
	for v := inst.first; v < inst.end(); v++ {
		if p.g.HasPredecessorOutside(v, inst.first, inst.end()-1) {
			return false
		}
	}
	return true
}

// SetLowWater implements Retirer: the mark paces the certifier's
// epochs and, when it moves, the rebase.
//
//rsvet:deterministic
func (p *RSGT) SetLowWater(instance int64) {
	if p.advanceLowWater(instance) {
		p.maybeRebase()
	}
}

// FlushRetirement implements Retirer: drains the vertex queue and
// rebases unconditionally, so Recover and Finalize leave no
// retirement-pending state behind.
func (p *RSGT) FlushRetirement() {
	p.sweepStranded()
	p.flushRetire()
	p.rebase()
}

// RetireStats implements Retirer.
func (p *RSGT) RetireStats() RetireStats { return p.stats(p.rebases, p.execEntries) }

// maybeSweep runs a stranded-cluster sweep when enough committed
// instances sit in the graph and their count has at least doubled
// since the last sweep, amortizing the O(live graph) reachability walk
// to O(1) per committed transaction.
//
//rsvet:deterministic
func (p *RSGT) maybeSweep() {
	if p.compactionDue(len(p.committed), strandedSweepMinInsts, p.lastSweepResident) {
		p.sweepStranded()
		p.maybeRetire()
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
// swept sources (join's residency test) is sound for the
// same reason: a cycle through such an arc u -> v needs a path v -> u,
// and v is always a live requester's vertex.
func (p *RSGT) sweepStranded() {
	if !p.retireOn || len(p.committed) == 0 {
		return
	}
	reached := make(map[int]bool)
	var stack []int
	visit := func(v int) {
		if !reached[v] {
			reached[v] = true
			stack = append(stack, v)
		}
	}
	//rsvet:allow detlint -- order-insensitive: the reachable set does not depend on the order of its roots
	for _, inst := range p.insts {
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
		for _, w := range p.g.Successors(v) {
			visit(w)
		}
	}
	p.evictCommitted(func(inst *rsgtInst) bool {
		for v := inst.first; v < inst.end(); v++ {
			if reached[v] {
				return false
			}
		}
		return true
	})
	p.lastSweepResident = len(p.committed)
}

// maybeRebase rebases the dependency index when it has at least
// doubled since the last rebase, amortizing to O(1) per executed
// operation.
//
//rsvet:deterministic
func (p *RSGT) maybeRebase() {
	if p.compactionDue(p.execEntries, rebaseMinEntries, p.lastRebaseLive) {
		p.rebase()
	}
}

// rebase drops the dead part of the dependency index. An executed
// operation survives iff its instance is still resident (it is then in
// the instance's ops), or it sits in the reachable suffix of its
// object's history: the backward source scan stops at the last
// non-aborted write (the anchor), so entries strictly before the
// anchor — and aborted entries anywhere — can never be absorbed again.
// Surviving clocks lose their entries for instances that have left the
// graph, which no request would join in any more (see absorb).
//
//rsvet:deterministic
func (p *RSGT) rebase() {
	if !p.retireOn || p.execEntries == 0 {
		return
	}
	gone := func(d dep) bool { return !d.src.resident }
	live := 0
	//rsvet:allow detlint -- order-insensitive: each object's suffix is computed independently
	for obj, hist := range p.objHist {
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
			delete(p.objHist, obj)
			continue
		}
		clear(hist[len(kept):])
		p.objHist[obj] = kept
	}
	//rsvet:allow detlint -- order-insensitive: filters each resident instance's clocks independently
	for _, inst := range p.insts {
		live += len(inst.ops)
		for _, e := range inst.ops {
			e.clock = slices.DeleteFunc(e.clock, gone)
		}
	}
	p.execEntries, p.lastRebaseLive = live, live
	p.rebases++
}
