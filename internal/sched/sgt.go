package sched

import (
	"fmt"

	"relser/internal/core"
	"relser/internal/trace"
)

// SGT is classical serialization graph testing [Bad79, Cas81]: one
// vertex per transaction instance, an arc Ti -> Tk whenever an
// operation of Ti conflicts with and precedes an operation of Tk, and
// an abort whenever admitting an operation would close a cycle. It is
// RSGT's absolute-atomicity special case (Lemma 1), so everything but
// the vertex and the arcs a request induces is the shared certifier's:
// committed vertices are pruned once they have no predecessors (only
// then can they never rejoin a cycle), and the object histories and
// the retirement epochs are RSGT's. SGT's clocks are exact
// transaction-granularity reachability, so the suspicion test is the
// reach bit alone — no sequence refinement.
type SGT struct {
	traced
	certifier
}

// NewSGT returns a serialization-graph-testing protocol.
func NewSGT() *SGT { return &SGT{certifier: newCertifier()} }

// Name implements Protocol.
func (p *SGT) Name() string { return "sgt" }

// Begin implements Protocol: the instance is one vertex.
func (p *SGT) Begin(instance int64, program *core.Transaction) {
	p.begin(instance, program, 1)
}

// Request implements Protocol: add one arc from every resident
// instance among the operation's covering conflict sources; on a
// cycle, abort the requester (its conflict order is fixed by
// execution, so blocking can never help). A source that is no longer
// resident was committed and pruned, so it cannot be on a cycle.
func (p *SGT) Request(req OpRequest) Decision {
	inst := p.requester(req)
	write := req.Op.Kind == core.WriteOp
	hist := p.objHist[req.Op.Object]
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
			p.explainRefusal(refused, func(_ int, path []int) { p.explainReject(req, path) })
		}
		return Abort
	}
	p.record(&execOp{inst: inst, seq: req.Seq, write: write}, req.Op.Object, hist)
	return Grant
}

// explainReject emits a conflict-cycle event: path is the
// serialization graph's existing path me -> ... -> src, which the
// refused conflict arc src -> me closes into a transaction-granularity
// cycle. Tracing-only cold path.
func (p *SGT) explainReject(req OpRequest, path []int) {
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
	instAt := make(map[int]*txnInst, len(p.insts))
	for _, in := range p.insts {
		instAt[in.first] = in
	}
	cyc := &trace.Cycle{}
	for i, v := range path {
		in := instAt[v]
		cyc.Nodes = append(cyc.Nodes, trace.CycleNode{Instance: in.id, Txn: int(in.program.ID), Seq: -1})
		cyc.Arcs = append(cyc.Arcs, trace.CycleArc{From: i, To: (i + 1) % len(path), Kind: "C"})
	}
	ev.Cycle = cyc
	p.tr.Emit(ev)
}
