package sched

import (
	"fmt"
	"math"
	"slices"

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
//
// Under AbsoluteOracle relative serializability is conflict
// serializability (Lemma 1), and RSGT runs serialization graph testing
// [Bad79, Cas81] (SGT): one vertex per instance, no dependency clock
// (see requestConflict). THEORY.md §4 shows why the collapse is exact
// only when every transaction is absolute, so every other oracle keeps
// a vertex per operation.
type RSGT struct {
	traced
	certifier
	oracle AtomicityOracle
	name   string
	// absolute is set under AbsoluteOracle: one vertex per instance.
	absolute bool

	// frontier is the dependency clock of the request being decided,
	// reused across requests; the certifier's stamp numbers the request
	// so that each source instance's frontierAt is valid only for the
	// current one.
	frontier []dep
	// prior is the frontier's seqs once the requester's previous
	// operation is joined in: entries still equal to it afterwards were
	// not advanced by the request and induce no arc.
	prior []int
}

// dep is one entry of a dependency clock: the highest sequence of src
// the clock's operation transitively depends on.
type dep struct {
	src *txnInst
	seq int
}

// NewRSGT returns the paper's protocol under the given specification
// oracle.
func NewRSGT(oracle AtomicityOracle) *RSGT {
	_, absolute := oracle.(AbsoluteOracle)
	return &RSGT{
		certifier: newCertifier(),
		oracle:    oracle,
		name:      "rsgt",
		absolute:  absolute,
	}
}

// NewSGT returns serialization graph testing: RSGT under
// AbsoluteOracle, named "sgt".
func NewSGT() *RSGT {
	p := NewRSGT(AbsoluteOracle{})
	p.name = "sgt"
	return p
}

// Name implements Protocol.
func (p *RSGT) Name() string { return p.name }

// Begin implements Protocol: materialize the program's vertices and
// I-arcs, or the instance's one vertex under an absolute spec.
func (p *RSGT) Begin(instance int64, program *core.Transaction) {
	n := program.Len()
	if p.absolute {
		n = 1
	}
	inst := p.begin(instance, program, n)
	if inst == nil {
		return
	}
	for seq := 0; seq+1 < n; seq++ {
		if err := p.g.AddArc(inst.vertex(seq), inst.vertex(seq+1)); err != nil {
			panic(fmt.Sprintf("sched: I-arc on fresh vertices cycled: %v", err)) // unreachable
		}
	}
}

// Request implements Protocol.
func (p *RSGT) Request(req OpRequest) Decision {
	inst := p.requester(req)
	write := req.Op.Kind == core.WriteOp
	hist := p.objHist[req.Op.Object]
	if p.absolute {
		return p.requestConflict(req, inst, write, hist)
	}
	// Dependency clock of the new operation: the join of its covering
	// predecessors — the instance's previous op, the last relevant write,
	// and (for writes) the reads since it.
	p.stamp++
	p.frontier = p.frontier[:0]
	if req.Seq > 0 {
		p.absorb(inst, inst.ops[req.Seq-1])
	}
	p.prior = p.prior[:0]
	for _, d := range p.frontier {
		p.prior = append(p.prior, d.seq)
	}
	for _, e := range p.covering(hist, write) {
		p.absorb(inst, e)
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
	p.record(&execOp{inst: inst, seq: req.Seq, write: write, clock: slices.Clone(p.frontier)}, req.Op.Object, hist)
	return Grant
}

// requestConflict is Request under an absolute spec: add one arc from
// every resident instance among the operation's covering conflict
// sources; on a cycle, abort the requester (its conflict order is fixed
// by execution, so blocking can never help). A source that is no
// longer resident was committed and pruned, so it cannot be on a cycle.
// The reach table is exact at transaction granularity, so the reach
// bit alone decides suspicion.
func (p *RSGT) requestConflict(req OpRequest, inst *txnInst, write bool, hist []*execOp) Decision {
	p.stamp++
	inst.stamp = p.stamp
	for _, e := range p.covering(hist, write) {
		if src := e.inst; src.resident && src.stamp != p.stamp {
			src.stamp = p.stamp
			p.arc(src.first, inst.first, src.slot, inst.slot, true)
		}
	}
	if refused := p.admit(inst.slot); refused != nil {
		if p.tr.Wants(trace.KindConflictCycle) {
			p.explainRefusal(refused, func(_ int, path []int) { p.explainConflictCycle(req, path) })
		}
		return Abort
	}
	p.record(&execOp{inst: inst, seq: req.Seq, write: write}, req.Op.Object, hist)
	return Grant
}

// explainConflictCycle emits a conflict-cycle event: path is the
// serialization graph's existing path me -> ... -> src, which the
// refused conflict arc src -> me closes into a transaction-granularity
// cycle. Tracing-only cold path.
func (p *RSGT) explainConflictCycle(req OpRequest, path []int) {
	ev := trace.Event{
		Kind:     trace.KindConflictCycle,
		Protocol: p.Name(),
		Instance: req.Instance,
		Txn:      int(req.Op.Txn),
		Seq:      req.Seq,
		Op:       req.Op.String(),
		Object:   req.Op.Object,
		Reason:   fmt.Sprintf("conflict on %s would close a serialization-graph cycle", req.Op.Object),
	}
	owners := p.owners()
	cyc := &trace.Cycle{}
	for i, v := range path {
		in := owners[v].inst
		cyc.Nodes = append(cyc.Nodes, trace.CycleNode{Instance: in.id, Txn: int(in.program.ID), Seq: -1})
		cyc.Arcs = append(cyc.Arcs, trace.CycleArc{From: i, To: (i + 1) % len(path), Kind: "C"})
	}
	ev.Cycle = cyc
	p.tr.Emit(ev)
}

// absorb joins executed operation e, and everything it depends on, into
// the frontier of inst's current request by pointwise maximum. Entries
// of instances that have left the graph are dropped here: they induce
// no arc (see join), and what they depended on is already in
// e's clock, which was closed when e executed.
func (p *RSGT) absorb(inst *txnInst, e *execOp) {
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
func (p *RSGT) join(inst, src *txnInst, seq int) {
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
func (p *RSGT) induced(src *txnInst, srcSeq int, inst *txnInst, seq int) [len(fb)]rsgArc {
	_, fu := unitBounds(p.cuts(src, inst), src.program.Len(), srcSeq)
	bv, _ := unitBounds(p.cuts(inst, src), inst.program.Len(), seq)
	return [len(fb)]rsgArc{{fu, seq}, {srcSeq, bv}}
}

// rsgtVertex names a resident graph vertex by owner and sequence.
type rsgtVertex struct {
	inst *txnInst
	seq  int
}

func (p *RSGT) owners() map[int]rsgtVertex {
	owners := make(map[int]rsgtVertex)
	for _, in := range p.insts {
		for seq := range int(in.n) {
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
func clockSeq(clock []dep, src *txnInst) int {
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
func (p *RSGT) cuts(a, b *txnInst) []int {
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
