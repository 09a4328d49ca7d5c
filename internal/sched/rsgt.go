package sched

import (
	"fmt"
	"math"

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
//   - at Request, the operation's depends-on predecessors are computed
//     (same covering-set dynamic program as the offline checker), and
//     for every cross-transaction dependency u -> v the D-arc plus its
//     induced F-arc (PushForward(u, txn(v)) -> v) and B-arc
//     (u -> PullBackward(v, txn(u))) are inserted;
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

	insts map[int64]*rsgtInst
	// committed retains instances whose vertices are still in the
	// graph after commit (prune candidates).
	committedStatus map[int64]bool

	// Execution-order dependency tracking (exec indices are dense over
	// executed operations).
	execInfo []execOp
	deps     []graph.Bitset // deps[e] = exec indices op e depends on
	objHist  map[string][]int

	// pairCuts memoizes oracle answers per ordered instance pair.
	pairCuts map[[2]int64][]int

	// Bounded-memory state beyond the shared certifier (see Retirer):
	// the dependency index is periodically rebased onto the reachable
	// suffix.
	lastRebaseLive int
	rebases        int64
	// residentCommitted counts committed instances whose vertices are
	// still in the graph; lastSweepResident is its value after the last
	// stranded-cluster sweep (the doubling base for the next one).
	residentCommitted int
	lastSweepResident int
}

type rsgtInst struct {
	id       int64
	program  *core.Transaction
	vertices []int // seq -> graph vertex
	lastExec int   // exec index of the instance's most recent op, -1 if none
	executed int   // number of executed ops

	// Fast-path clock state: the instance's reachTable slot (-1 with
	// retirement off) and the minimum sequence of any arc head ever
	// added into the instance (math.MaxInt until the first one). A path
	// entering this instance from outside can only reach sequences
	// >= minEntry, because within an instance only I-arcs (sequence-
	// forward) connect vertices.
	slot     int
	minEntry int
}

type execOp struct {
	instance int64
	seq      int
	op       core.Op
}

// NewRSGT returns the paper's protocol under the given specification
// oracle.
func NewRSGT(oracle AtomicityOracle) *RSGT {
	return &RSGT{
		certifier:       newCertifier(),
		oracle:          oracle,
		insts:           make(map[int64]*rsgtInst),
		committedStatus: make(map[int64]bool),
		objHist:         make(map[string][]int),
		pairCuts:        make(map[[2]int64][]int),
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
	inst := &rsgtInst{id: instance, program: program, lastExec: -1, slot: p.allocSlot(instance), minEntry: math.MaxInt}
	inst.vertices = make([]int, program.Len())
	for seq := range inst.vertices {
		inst.vertices[seq] = p.g.AddVertex()
	}
	for seq := 0; seq+1 < program.Len(); seq++ {
		if err := p.g.AddArc(inst.vertices[seq], inst.vertices[seq+1]); err != nil {
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
	if req.Seq != inst.executed {
		panic(fmt.Sprintf("sched: instance %d requested seq %d, expected %d", req.Instance, req.Seq, inst.executed))
	}
	// Depends-on set of the new operation: covering predecessors are
	// the instance's previous op, the last relevant write, and (for
	// writes) the reads since it.
	depSet := graph.NewBitset(len(p.execInfo))
	absorb := func(e int) {
		// Earlier dependency sets are shorter (capacities grow with the
		// execution); union into the matching prefix.
		src := p.deps[e]
		depSet[:len(src)].UnionWith(src)
		depSet.Set(e)
	}
	if inst.lastExec >= 0 {
		absorb(inst.lastExec)
	}
	hist := p.objHist[req.Op.Object]
	for i := len(hist) - 1; i >= 0; i-- {
		e := hist[i]
		info := p.execInfo[e]
		if p.insts[info.instance] == nil && !p.committedStatus[info.instance] {
			continue // aborted
		}
		if info.op.Kind == core.WriteOp {
			absorb(e)
			break
		}
		if req.Op.Kind == core.WriteOp {
			absorb(e)
		}
	}

	// The request's D/F/B delta is one certifier batch. Every new arc
	// runs from a source instance A into this requester, so a cycle
	// needs an existing path back from the requester into A reaching a
	// sequence <= the arc's tail. The clocks over-approximate exactly
	// that: the path exists only if reach[requester] contains A
	// (instance-level closure) and the tail is >= minEntry[A] (the
	// lowest sequence any outside path can reach in A).
	minHead := math.MaxInt
	p.forEachSource(inst, depSet, func(src *rsgtInst, srcSeq int) {
		for _, a := range p.induced(src, srcSeq, inst, req.Seq) {
			p.arc(src.vertices[a.tail], inst.vertices[a.head], src.slot, inst.slot, a.tail >= src.minEntry)
			minHead = min(minHead, a.head)
		}
	})
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
	e := len(p.execInfo)
	p.execInfo = append(p.execInfo, execOp{instance: req.Instance, seq: req.Seq, op: req.Op})
	p.deps = append(p.deps, depSet)
	p.objHist[req.Op.Object] = append(hist, e)
	inst.lastExec = e
	inst.executed++
	p.maybeRebase()
	return Grant
}

// forEachSource calls fn for every executed operation in depSet of a
// resident instance other than inst, in execution order. Sources that
// are no longer resident induce no arc: a committed-and-pruned source's
// vertices are graph sources, so arcs from them can never close a
// cycle. Aborted sources can appear transitively (a live op that
// depended on a later-aborted op keeps the dependency — conservative:
// may cost an extra abort, never admits an incorrect schedule).
func (p *RSGT) forEachSource(inst *rsgtInst, depSet graph.Bitset, fn func(src *rsgtInst, srcSeq int)) {
	depSet.ForEach(func(e int) bool {
		info := p.execInfo[e]
		if src := p.insts[info.instance]; src != nil && src != inst {
			fn(src, info.seq)
		}
		return true
	})
}

// rsgArc is one arc between two instances, by sequence: tail in the
// source instance, head in the dependent one.
type rsgArc struct{ tail, head int }

// dfb is the order in which induced generates a dependency's arcs, so
// position i of a request's batch has kind dfb[i%len(dfb)].
var dfb = [3]core.ArcKind{core.DArc, core.FArc, core.BArc}

// induced returns the arcs Definition 3 adds for one cross-transaction
// dependency — operation v = seq of inst depends on operation
// u = srcSeq of src: the D-arc u -> v, the F-arc
// PushForward(u, txn(v)) -> v from the last operation of u's atomic
// unit relative to inst, and the B-arc u -> PullBackward(v, txn(u)) to
// the first operation of v's atomic unit relative to src.
func (p *RSGT) induced(src *rsgtInst, srcSeq int, inst *rsgtInst, seq int) [len(dfb)]rsgArc {
	_, fu := unitBounds(p.cuts(src, inst), src.program.Len(), srcSeq)
	bv, _ := unitBounds(p.cuts(inst, src), inst.program.Len(), seq)
	return [len(dfb)]rsgArc{{srcSeq, seq}, {fu, seq}, {srcSeq, bv}}
}

// rsgtVertex names a resident graph vertex by owner and sequence.
type rsgtVertex struct {
	inst *rsgtInst
	seq  int
}

func (p *RSGT) owners() map[int]rsgtVertex {
	owners := make(map[int]rsgtVertex)
	for _, in := range p.insts {
		for seq, vert := range in.vertices {
			owners[vert] = rsgtVertex{inst: in, seq: seq}
		}
	}
	return owners
}

// deriveKinds derives the I/D/F/B label of the live arc u -> w when a
// cycle or snapshot is rendered, instead of storing a label per arc in
// lock-step with the graph. Within an instance only I-arcs exist;
// across instances the arc was induced by the recorded dependencies of
// w's instance on u's (rebase keeps both for resident instances), so
// regenerating their arcs and keeping those that land on (u, w) gives
// the same union of kinds the insertions carried.
func (p *RSGT) deriveKinds(u, w rsgtVertex) core.ArcKind {
	if u.inst == w.inst {
		return core.IArc
	}
	var mask core.ArcKind
	for e, info := range p.execInfo {
		// F- and D-arcs end at the dependent operation, B-arcs at the
		// start of its unit: never after it.
		if info.instance != w.inst.id || info.seq < w.seq {
			continue
		}
		p.forEachSource(w.inst, p.deps[e], func(src *rsgtInst, srcSeq int) {
			if src != u.inst {
				return
			}
			for k, a := range p.induced(src, srcSeq, w.inst, info.seq) {
				if a.tail == u.seq && a.head == w.seq {
					mask |= dfb[k]
				}
			}
		})
	}
	return mask
}

// explainReject emits a cycle-reject event naming the concrete RSG
// cycle the refused batch would have closed. The arcs this request
// inserted before the refused one are in the graph while the event is
// built but not in the recorded dependencies, so their kinds come from
// their batch position.
func (p *RSGT) explainReject(req OpRequest, refused [][2]int) {
	p.explainRefusal(refused, func(i int, path []int) {
		kind := dfb[i%len(dfb)]
		ev := trace.Event{
			Kind:     trace.KindCycleReject,
			Protocol: p.Name(),
			Instance: req.Instance,
			Txn:      int(req.Op.Txn),
			Seq:      req.Seq,
			Op:       req.Op.String(),
			Object:   req.Op.Object,
			Reason:   fmt.Sprintf("admitting %s would add a %s-arc closing an RSG cycle", req.Op, kind),
		}
		pending := make(map[[2]int]core.ArcKind, i)
		for j, a := range refused[:i] {
			pending[a] |= dfb[j%len(dfb)]
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

// DotSnapshot renders the live relative serialization graph in
// Graphviz DOT: vertices are the resident instances' operations, arcs
// carry their I/D/F/B kind masks. This is the on-demand snapshot
// emitted at every rejection point.
func (p *RSGT) DotSnapshot() string { return p.dotSnapshot(nil) }

// dotSnapshot additionally labels the arcs of a request that is being
// refused (see explainReject).
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
		for seq, vert := range in.vertices {
			d.AddNode(vert, fmt.Sprintf("%s #%d", in.program.Op(seq), id), nil)
		}
	}
	owners := p.owners()
	for _, id := range ids {
		for _, vert := range p.insts[id].vertices {
			for _, s := range p.g.Successors(vert) {
				mask := p.deriveKinds(owners[vert], owners[s]) | pending[[2]int{vert, s}]
				d.AddEdge(vert, s, mask.String(), nil)
			}
		}
	}
	return d.String()
}

// cuts memoizes the oracle's unit boundaries of a's program relative
// to observer b.
func (p *RSGT) cuts(a, b *rsgtInst) []int {
	key := [2]int64{a.id, b.id}
	c, ok := p.pairCuts[key]
	if !ok {
		c = p.oracle.Cuts(a.program, b.program)
		p.pairCuts[key] = c
	}
	return c
}

// CanCommit implements Protocol.
func (p *RSGT) CanCommit(int64) bool { return true }

// Commit implements Protocol.
func (p *RSGT) Commit(instance int64) {
	if p.insts[instance] == nil || p.committedStatus[instance] {
		return
	}
	p.committedStatus[instance] = true
	p.residentCommitted++
	p.prune()
	p.maybeRetire()
	p.maybeSweep()
}

// Abort implements Protocol: drop the instance's vertices from the
// graph. Its executed operations remain in the dependency tracking as
// dead entries (skipped during source discovery); the driver undoes
// their store effects and cascades dependents.
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
// its vertices and clock slot to the certifier.
func (p *RSGT) evict(inst *rsgtInst) {
	p.release(inst.id, inst.vertices...)
	delete(p.insts, inst.id)
	if p.committedStatus[inst.id] {
		p.residentCommitted--
	}
}

// prune removes committed instances none of whose vertices has an
// incoming arc from another instance: new arcs always terminate at
// live requesters (or their unit boundaries), so a committed source
// can never rejoin a cycle.
func (p *RSGT) prune() {
	for {
		removed := false
		for _, instID := range sortedInstances(p.insts) {
			if !p.committedStatus[instID] {
				continue
			}
			inst := p.insts[instID]
			clean := true
			for _, v := range inst.vertices {
				for _, u := range p.g.Predecessors(v) {
					if !containsVertex(inst.vertices, u) {
						clean = false
						break
					}
				}
				if !clean {
					break
				}
			}
			if clean {
				p.evict(inst)
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

// SetLowWater implements Retirer: besides pacing the certifier's
// epochs, the mark is the safety belt for the committed-status sweep.
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
func (p *RSGT) RetireStats() RetireStats { return p.stats(p.rebases, len(p.execInfo)) }

// maybeSweep runs a stranded-cluster sweep when enough committed
// instances sit in the graph and their count has at least doubled
// since the last sweep, amortizing the O(live graph) reachability walk
// to O(1) per committed transaction.
//
//rsvet:deterministic
func (p *RSGT) maybeSweep() {
	if p.compactionDue(p.residentCommitted, strandedSweepMinInsts, p.lastSweepResident) {
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
// swept sources (forEachSource's residency test) is sound for the
// same reason: a cycle through such an arc u -> v needs a path v -> u,
// and v is always a live requester's vertex.
func (p *RSGT) sweepStranded() {
	if !p.retireOn || p.residentCommitted == 0 {
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
	for _, id := range sortedInstances(p.insts) {
		if p.committedStatus[id] {
			continue
		}
		for _, v := range p.insts[id].vertices {
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
	for _, id := range sortedInstances(p.insts) {
		if !p.committedStatus[id] {
			continue
		}
		inst := p.insts[id]
		stranded := true
		for _, v := range inst.vertices {
			if reached[v] {
				stranded = false
				break
			}
		}
		if !stranded {
			continue
		}
		p.evict(inst)
	}
	p.lastSweepResident = p.residentCommitted
}

// maybeRebase rebases the dependency index when the history has at
// least doubled since the last rebase, amortizing to O(1) per
// executed operation.
//
//rsvet:deterministic
func (p *RSGT) maybeRebase() {
	if p.compactionDue(len(p.execInfo), rebaseMinEntries, p.lastRebaseLive) {
		p.rebase()
	}
}

// rebase drops the unreachable prefix of the dependency index. An exec
// entry survives iff its instance is still resident, or it sits in the
// reachable suffix of some object history: per object, the backward
// source scan stops at the last non-aborted write (the anchor), so
// entries strictly before the anchor — and aborted entries anywhere —
// can never be absorbed again. Dependency bitsets are transitively
// closed when built (absorb unions full closures), so rewriting them
// with only the surviving bits loses no arc generation: dropped
// entries are aborted or pruned-committed, and neither ever generates
// an arc (pruned instances cannot re-enter insts).
//
//rsvet:deterministic
func (p *RSGT) rebase() {
	if !p.retireOn || len(p.execInfo) == 0 {
		return
	}
	n := len(p.execInfo)
	keep := make([]bool, n)
	for e := 0; e < n; e++ {
		if p.insts[p.execInfo[e].instance] != nil {
			keep[e] = true
		}
	}
	alive := func(e int) bool {
		id := p.execInfo[e].instance
		return p.insts[id] != nil || p.committedStatus[id]
	}
	newHist := make(map[string][]int, len(p.objHist))
	//rsvet:allow detlint -- order-insensitive: each object's suffix is computed independently
	for obj, hist := range p.objHist {
		anchor := 0
		for i := len(hist) - 1; i >= 0; i-- {
			e := hist[i]
			if alive(e) && p.execInfo[e].op.Kind == core.WriteOp {
				anchor = i
				break
			}
		}
		var kept []int
		for _, e := range hist[anchor:] {
			if alive(e) {
				keep[e] = true
				kept = append(kept, e)
			}
		}
		if kept != nil {
			newHist[obj] = kept
		}
	}
	remap := make([]int, n)
	m := 0
	for e := 0; e < n; e++ {
		if keep[e] {
			remap[e] = m
			m++
		} else {
			remap[e] = -1
		}
	}
	if m == n {
		p.lastRebaseLive = m
		p.rebases++
		return
	}
	newInfo := make([]execOp, m)
	newDeps := make([]graph.Bitset, m)
	for e := 0; e < n; e++ {
		ne := remap[e]
		if ne < 0 {
			continue
		}
		newInfo[ne] = p.execInfo[e]
		nd := graph.NewBitset(m)
		p.deps[e].ForEach(func(d int) bool {
			if remap[d] >= 0 {
				nd.Set(remap[d])
			}
			return true
		})
		newDeps[ne] = nd
	}
	//rsvet:allow detlint -- order-insensitive: rewrites each object's indices in place
	for _, hist := range newHist {
		for i, e := range hist {
			hist[i] = remap[e]
		}
	}
	//rsvet:allow detlint -- order-insensitive: remaps each resident instance's cursor independently
	for _, inst := range p.insts {
		if inst.lastExec >= 0 {
			inst.lastExec = remap[inst.lastExec]
		}
	}
	p.execInfo = newInfo
	p.deps = newDeps
	p.objHist = newHist
	// Sweep committed-status entries no longer referenced by anything:
	// resident instances, surviving exec entries, and (belt) instances
	// at or above the engine's low-water mark all stay.
	referenced := make(map[int64]bool, len(p.insts)+m)
	for e := range newInfo {
		referenced[newInfo[e].instance] = true
	}
	newStatus := make(map[int64]bool, len(p.insts))
	//rsvet:allow detlint -- order-insensitive: per-key membership test into a fresh map
	for id := range p.committedStatus {
		if p.insts[id] != nil || referenced[id] || id >= p.lowWater {
			newStatus[id] = true
		}
	}
	p.committedStatus = newStatus
	// Oracle memos for pairs with a finished side can never be asked
	// for again (cuts is only consulted for resident instances).
	newCuts := make(map[[2]int64][]int, len(p.pairCuts))
	//rsvet:allow detlint -- order-insensitive: per-key residency filter into a fresh map
	for key, c := range p.pairCuts {
		if p.insts[key[0]] != nil && p.insts[key[1]] != nil {
			newCuts[key] = c
		}
	}
	p.pairCuts = newCuts
	p.lastRebaseLive = m
	p.rebases++
}

func containsVertex(vs []int, v int) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}
