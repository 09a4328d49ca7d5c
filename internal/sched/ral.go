package sched

import (
	"fmt"

	"relser/internal/core"
	"relser/internal/trace"
)

// RAL — relative-atomicity locking — is this module's take on the
// protocol the paper announces as future work ("we are currently
// developing efficient, lock based protocols for recognizing
// relatively serializable executions", §3/§5). It generalizes
// altruistic locking from uniform early release to **per-observer
// release**: a lock on object x held by Ti becomes transparent to Tj —
// and only to Tj — once Ti has completed the atomic unit of
// Atomicity(Ti, Tj) containing Ti's last access to x. Different
// observers see the same lock released at different times, exactly
// mirroring the pairwise atomic units of the model.
//
// Because a lock discipline alone is not known to characterize
// relative serializability exactly, RAL keeps the paper's graph in the
// loop: every lock-admitted operation still passes through an embedded
// incremental RSG (the RSGT machinery), so admitted executions are
// relatively serializable by Theorem 1 *by construction*. The locks
// act as a pessimistic filter that converts most would-be RSG cycles
// into waits instead of aborts; the graph is the safety net, never the
// victim of the discipline's optimism.
//
// Wake discipline (inherited from altruistic locking, applied per
// pair): a transaction that slips past Tj-released locks of donor Ti
// enters Ti's wake — it may not touch objects Ti still needs, cannot
// commit before Ti, and is cascaded by the driver if Ti aborts.
type RAL struct {
	traced
	base   *S2PL
	rsgt   *RSGT
	oracle AtomicityOracle

	progs    map[int64]*core.Transaction
	executed map[int64]int
	// lastUse[inst][obj] is the final sequence position at which the
	// instance's program accesses the object.
	lastUse map[int64]map[string]int
	// remaining[inst][obj] counts unexecuted accesses.
	remaining map[int64]map[string]int
	wakes     map[int64]map[int64]bool
	committed map[int64]bool
}

// NewRAL returns the hybrid locking protocol under the given oracle.
func NewRAL(oracle AtomicityOracle) *RAL {
	return &RAL{
		base:      NewS2PL(),
		rsgt:      NewRSGT(oracle),
		oracle:    oracle,
		progs:     make(map[int64]*core.Transaction),
		executed:  make(map[int64]int),
		lastUse:   make(map[int64]map[string]int),
		remaining: make(map[int64]map[string]int),
		wakes:     make(map[int64]map[int64]bool),
		committed: make(map[int64]bool),
	}
}

// Name implements Protocol.
func (p *RAL) Name() string { return "ral" }

// SetTracer installs the tracer on the protocol, its lock manager, and
// its embedded certifier. Cycle rejections surface from the certifier
// under protocol name "rsgt" (the graph makes the decision).
func (p *RAL) SetTracer(tr *trace.Tracer) {
	p.traced.SetTracer(tr)
	p.base.SetTracer(tr)
	p.rsgt.SetTracer(tr)
}

// SetLowWater implements Retirer: the embedded certifier owns all
// graph state, so retirement delegates wholesale (like SetTracer).
func (p *RAL) SetLowWater(instance int64) { p.rsgt.SetLowWater(instance) }

// FlushRetirement implements Retirer.
func (p *RAL) FlushRetirement() { p.rsgt.FlushRetirement() }

// RetireStats implements Retirer.
func (p *RAL) RetireStats() RetireStats { return p.rsgt.RetireStats() }

// Begin implements Protocol.
func (p *RAL) Begin(instance int64, program *core.Transaction) {
	p.base.Begin(instance, program)
	p.rsgt.Begin(instance, program)
	p.progs[instance] = program
	p.executed[instance] = 0
	last := make(map[string]int)
	rem := make(map[string]int)
	for _, o := range program.Ops {
		last[o.Object] = o.Seq
		rem[o.Object]++
	}
	p.lastUse[instance] = last
	p.remaining[instance] = rem
	p.wakes[instance] = make(map[int64]bool)
}

// releasedFor reports whether holder's lock on object is transparent
// to the observer: the holder has finished the atomic unit — relative
// to the observer's program — containing its last access to the
// object.
func (p *RAL) releasedFor(holder int64, object string, observer *core.Transaction) bool {
	prog := p.progs[holder]
	if prog == nil {
		return false
	}
	last, used := p.lastUse[holder][object]
	if !used {
		return false
	}
	if p.remaining[holder][object] > 0 {
		return false // the holder itself will touch it again
	}
	cuts := p.oracle.Cuts(prog, observer)
	_, end := unitBounds(cuts, prog.Len(), last)
	if end == prog.Len()-1 {
		// The final unit never releases early: with no interior
		// boundary after it, release would only front-run commit
		// (and under absolute atomicity would break the strict-2PL
		// degeneration).
		return false
	}
	return p.executed[holder] > end
}

// Request implements Protocol.
func (p *RAL) Request(req OpRequest) Decision {
	// Wake discipline first: stay off objects a live donor still needs
	// (unless the donor has already released them to us).
	for donor := range p.wakes[req.Instance] {
		if p.committed[donor] || p.progs[donor] == nil {
			continue
		}
		if p.remaining[donor][req.Op.Object] > 0 && !p.releasedFor(donor, req.Op.Object, req.Program) {
			return Block
		}
	}

	st := p.base.lock(req.Op.Object)
	blockers := p.base.conflictingHolders(st, req)
	var effective []int64
	var donors []int64
	for _, b := range blockers {
		if p.releasedFor(b, req.Op.Object, req.Program) && !p.holdsDonorNeeds(req.Instance, b) {
			donors = append(donors, b)
		} else {
			effective = append(effective, b)
		}
	}
	if len(effective) > 0 {
		cyc, deadlock := p.base.installWaits(req.Instance, effective)
		if deadlock {
			if p.tr.Enabled() {
				p.tr.Emit(deadlockEvent(p.Name(), req, cyc))
			}
			return Abort
		}
		if p.tr.Enabled() {
			p.tr.Emit(blockEvent(p.Name(), req, effective))
		}
		return Block
	}

	// Lock discipline satisfied: certify with the paper's graph (a
	// rejection there emits its cycle-reject explanation as "rsgt").
	if d := p.rsgt.Request(req); d != Grant {
		return d
	}
	p.base.clearWaits(req.Instance)
	p.base.acquire(st, req)
	for _, d := range donors {
		if p.tr.Enabled() && !p.wakes[req.Instance][d] {
			p.tr.Emit(trace.Event{
				Kind: trace.KindWake, Protocol: p.Name(),
				Instance: req.Instance, Txn: int(req.Op.Txn),
				Object: req.Op.Object, Blockers: []int64{d},
				Reason: fmt.Sprintf("lock on %s released per-observer by instance %d; entering its wake", req.Op.Object, d),
			})
		}
		p.wakes[req.Instance][d] = true
	}
	p.executed[req.Instance] = req.Seq + 1
	p.remaining[req.Instance][req.Op.Object]--
	return Grant
}

// holdsDonorNeeds mirrors the altruistic entry guard: do not enter a
// wake while holding locks the donor's unexecuted suffix needs.
func (p *RAL) holdsDonorNeeds(requester, donor int64) bool {
	rem := p.remaining[donor]
	for _, obj := range p.base.heldObjects(requester) {
		if rem[obj] > 0 {
			return true
		}
	}
	return false
}

// CanCommit implements Protocol: wake members wait for their donors.
func (p *RAL) CanCommit(instance int64) bool {
	for donor := range p.wakes[instance] {
		if !p.committed[donor] && p.progs[donor] != nil {
			return false
		}
	}
	return p.rsgt.CanCommit(instance)
}

// Commit implements Protocol.
func (p *RAL) Commit(instance int64) {
	p.committed[instance] = true
	p.cleanup(instance)
	p.base.Commit(instance)
	p.rsgt.Commit(instance)
}

// Abort implements Protocol.
func (p *RAL) Abort(instance int64) {
	p.cleanup(instance)
	p.base.Abort(instance)
	p.rsgt.Abort(instance)
}

func (p *RAL) cleanup(instance int64) {
	delete(p.progs, instance)
	delete(p.executed, instance)
	delete(p.lastUse, instance)
	delete(p.remaining, instance)
	delete(p.wakes, instance)
}
