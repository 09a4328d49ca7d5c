package sched

import (
	"fmt"
	"slices"

	"relser/internal/core"
	"relser/internal/trace"
)

// Altruistic implements altruistic locking [SGMA87], the long-lived
// transaction technique §5 of the paper presents relative atomicity as
// generalizing. It extends strict two-phase locking with *donation*:
// when a transaction completes an atomic unit it donates the locks on
// objects it will not access again; other transactions may then lock
// those objects before the donor commits, subject to the wake
// discipline of the shared donation core. The discipline keeps
// executions serializable with the donor ordered first, exactly the
// guarantee of [SGMA87].
type Altruistic struct{ donation }

// NewAltruistic returns an altruistic-locking protocol whose donation
// points are the oracle's cuts of each transaction relative to itself:
// donation is per transaction, not per observer. Under a SpecOracle
// those cuts are empty, so the protocol never donates and behaves as
// strict two-phase locking.
func NewAltruistic(oracle AtomicityOracle) *Altruistic {
	return &Altruistic{newDonation("altruistic", "acquired donated %s; entering wake of instance %d",
		func(holder, _ *core.Transaction) []int { return oracle.Cuts(holder, holder) })}
}

// Request implements Protocol.
func (p *Altruistic) Request(req OpRequest) Decision {
	d := p.donation.Request(req)
	if d == Grant && p.tr.Enabled() {
		p.traceDonations(req)
	}
	return d
}

// traceDonations emits a donate event for each lock the granted
// operation releases: a held object the program never touches again
// whose release point is req.Seq.
func (p *Altruistic) traceDonations(req OpRequest) {
	r := p.recs[req.Instance]
	cuts := p.cuts(r.prog, r.prog)
	held := p.base.heldObjects(req.Instance)
	for i, obj := range held {
		u := r.use(obj)
		if u.remaining > 0 || releaseEnd(cuts, r.prog.Len(), u.last) != req.Seq || slices.Contains(held[:i], obj) {
			continue // needed, released earlier or later, or listed twice by a lock upgrade
		}
		p.tr.Emit(trace.Event{
			Kind: trace.KindDonate, Protocol: p.name,
			Instance: req.Instance, Txn: int(req.Op.Txn),
			Seq: req.Seq, Object: obj,
			Reason: fmt.Sprintf("unit boundary after seq %d; lock on %s donated", req.Seq, obj),
		})
	}
}
