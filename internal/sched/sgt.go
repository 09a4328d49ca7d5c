package sched

import (
	"fmt"

	"relser/internal/core"
	"relser/internal/trace"
)

// SGT is classical serialization graph testing [Bad79, Cas81]: one
// vertex per transaction instance, an arc Ti -> Tk whenever an
// operation of Ti conflicts with and precedes an operation of Tk, and
// an abort whenever admitting an operation would close a cycle.
// Committed vertices are pruned once they have no predecessors (only
// then can they never rejoin a cycle).
type SGT struct {
	traced
	certifier
	nodeOf map[int64]int
	status map[int64]byte // live, committed
	// objs tracks per-object access history at transaction granularity
	// for conflict-source discovery; dead (aborted) entries are
	// skipped lazily.
	objs map[string]*objHistory
	// progs retains programs for explanation events; populated only
	// while tracing.
	progs map[int64]*core.Transaction

	// Bounded-memory state beyond the shared certifier (see Retirer).
	// SGT's clocks are exact transaction-granularity reachability (one
	// vertex per instance), so the suspicion test is the reach bit alone
	// — no sequence refinement. The history sweep is the rebase analog:
	// per object, entries before the last non-aborted write are
	// unreachable by the conflict-source scan and can be dropped, after
	// which the committed-status map is swept down to referenced
	// instances.
	entryCount    int
	lastSweepLive int
	sweeps        int64
}

const (
	instLive byte = iota
	instCommitted
)

type objHistory struct {
	entries []objAccess
}

type objAccess struct {
	instance int64
	kind     core.OpKind
}

// NewSGT returns a serialization-graph-testing protocol.
func NewSGT() *SGT {
	return &SGT{
		certifier: newCertifier(),
		nodeOf:    make(map[int64]int),
		status:    make(map[int64]byte),
		objs:      make(map[string]*objHistory),
		progs:     make(map[int64]*core.Transaction),
	}
}

// Name implements Protocol.
func (p *SGT) Name() string { return "sgt" }

// Begin implements Protocol.
func (p *SGT) Begin(instance int64, program *core.Transaction) {
	if _, ok := p.nodeOf[instance]; !ok {
		p.nodeOf[instance] = p.g.AddVertex()
		p.status[instance] = instLive
		p.allocSlot(instance)
		if p.tr.Enabled() {
			p.progs[instance] = program
		}
	}
}

// Request implements Protocol: add the conflict arcs the operation
// induces; on a cycle, abort the requester (its conflict order is
// fixed by execution, so blocking can never help).
func (p *SGT) Request(req OpRequest) Decision {
	me := p.nodeOf[req.Instance]
	mySlot := p.rt.slotOf[req.Instance]
	for _, src := range p.conflictSources(req) {
		// A pruned committed source cannot be on a cycle.
		if n, ok := p.nodeOf[src]; ok && n != me {
			p.arc(n, me, p.rt.slotOf[src], mySlot, true)
		}
	}
	if refused := p.admit(mySlot); refused != nil {
		if p.tr.Wants(trace.KindConflictCycle) {
			p.explainRefusal(refused, func(_ int, path []int) { p.explainReject(req, path) })
		}
		return Abort
	}
	// Record the access only after admission.
	h := p.history(req.Op.Object)
	h.entries = append(h.entries, objAccess{instance: req.Instance, kind: req.Op.Kind})
	p.entryCount++
	p.maybeSweep()
	return Grant
}

// conflictSources returns the instances whose prior accesses conflict
// with req, reduced to a covering set: the most recent live write plus
// every live read after it (for writes), or just the most recent live
// write (for reads). Transitivity through write-write chains makes
// the reduction cycle-equivalent to the full arc set.
func (p *SGT) conflictSources(req OpRequest) []int64 {
	h := p.objs[req.Op.Object]
	if h == nil {
		return nil
	}
	var out []int64
	seen := make(map[int64]bool)
	for i := len(h.entries) - 1; i >= 0; i-- {
		e := h.entries[i]
		if _, alive := p.nodeOf[e.instance]; !alive && p.status[e.instance] != instCommitted {
			continue // aborted
		}
		if e.kind == core.WriteOp {
			if !seen[e.instance] {
				out = append(out, e.instance)
			}
			return out // everything earlier is covered transitively
		}
		// Reads only matter for an incoming write.
		if req.Op.Kind == core.WriteOp && !seen[e.instance] {
			seen[e.instance] = true
			out = append(out, e.instance)
		}
	}
	return out
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
	instAt := make(map[int]int64, len(p.nodeOf))
	for inst, v := range p.nodeOf {
		instAt[v] = inst
	}
	cyc := &trace.Cycle{}
	for i, v := range path {
		inst := instAt[v]
		txn := 0
		if prog := p.progs[inst]; prog != nil {
			txn = int(prog.ID)
		}
		cyc.Nodes = append(cyc.Nodes, trace.CycleNode{Instance: inst, Txn: txn, Seq: -1})
		cyc.Arcs = append(cyc.Arcs, trace.CycleArc{From: i, To: (i + 1) % len(path), Kind: "C"})
	}
	ev.Cycle = cyc
	p.tr.Emit(ev)
}

// CanCommit implements Protocol.
func (p *SGT) CanCommit(int64) bool { return true }

// Commit implements Protocol.
func (p *SGT) Commit(instance int64) {
	p.status[instance] = instCommitted
	p.prune()
	p.maybeRetire()
}

// Abort implements Protocol.
func (p *SGT) Abort(instance int64) {
	if v, ok := p.nodeOf[instance]; ok {
		p.release(instance, v, 1)
	}
	delete(p.nodeOf, instance)
	delete(p.status, instance)
	delete(p.progs, instance)
	p.prune()
	p.maybeRetire()
}

// prune removes committed instances with no incoming arcs; such
// instances can never participate in a future cycle because new arcs
// only ever terminate at live requesters.
func (p *SGT) prune() {
	for {
		removed := false
		for _, inst := range sortedInstances(p.nodeOf) {
			if p.status[inst] != instCommitted {
				continue
			}
			v := p.nodeOf[inst]
			if p.g.InDegree(v) == 0 {
				p.release(inst, v, 1)
				delete(p.nodeOf, inst)
				delete(p.progs, inst)
				// Keep the committed status so history entries still
				// count as valid conflict sources (they are skipped as
				// "pruned" in Request via the nodeOf check); the history
				// sweep reclaims it once nothing references the entry.
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

// SetLowWater implements Retirer; see RSGT.SetLowWater.
//
//rsvet:deterministic
func (p *SGT) SetLowWater(instance int64) {
	if p.advanceLowWater(instance) {
		p.maybeSweep()
	}
}

// FlushRetirement implements Retirer.
func (p *SGT) FlushRetirement() {
	p.flushRetire()
	p.sweep()
}

// RetireStats implements Retirer.
func (p *SGT) RetireStats() RetireStats { return p.stats(p.sweeps, p.entryCount) }

// maybeSweep sweeps the access histories when they have at least
// doubled since the last sweep, amortizing to O(1) per access.
//
//rsvet:deterministic
func (p *SGT) maybeSweep() {
	if p.compactionDue(p.entryCount, rebaseMinEntries, p.lastSweepLive) {
		p.sweep()
	}
}

// sweep drops unreachable history: per object, the conflict-source
// scan stops at the last non-aborted write, so entries strictly before
// it — and aborted entries anywhere — can never be consulted again.
// Committed statuses survive only while a resident instance or a
// retained entry references them (or, as a safety belt, while the
// instance is above the engine's low-water mark).
//
//rsvet:deterministic
func (p *SGT) sweep() {
	if !p.retireOn {
		return
	}
	alive := func(id int64) bool {
		_, res := p.nodeOf[id]
		return res || p.status[id] == instCommitted
	}
	referenced := make(map[int64]bool, len(p.nodeOf))
	total := 0
	//rsvet:allow detlint -- order-insensitive: each object's suffix is computed independently
	for obj, h := range p.objs {
		anchor := 0
		for i := len(h.entries) - 1; i >= 0; i-- {
			e := h.entries[i]
			if e.kind == core.WriteOp && alive(e.instance) {
				anchor = i
				break
			}
		}
		var kept []objAccess
		for _, e := range h.entries[anchor:] {
			if alive(e.instance) {
				kept = append(kept, e)
				referenced[e.instance] = true
			}
		}
		if len(kept) == 0 {
			delete(p.objs, obj)
			continue
		}
		h.entries = kept
		total += len(kept)
	}
	newStatus := make(map[int64]byte, len(p.nodeOf))
	//rsvet:allow detlint -- order-insensitive: per-key membership test into a fresh map
	for id, st := range p.status {
		if _, res := p.nodeOf[id]; res || referenced[id] || id >= p.lowWater {
			newStatus[id] = st
		}
	}
	p.status = newStatus
	p.entryCount = total
	p.lastSweepLive = total
	p.sweeps++
}

func (p *SGT) history(object string) *objHistory {
	h, ok := p.objs[object]
	if !ok {
		h = &objHistory{}
		p.objs[object] = h
	}
	return h
}
