package sched

import "relser/internal/core"

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
// victim of the discipline's optimism. The net does fire: in
// TestRALCycleRejectVerifies's three-transaction wake chain the locks
// grant w1[z] and only the graph refuses it. Without the graph that
// cycle would surface at commit as a wake wait that only the driver's
// stall breaking resolves.
//
// The lock discipline is altruistic locking's, from the shared
// donation core, with the cuts taken relative to the observer: a
// transaction that slips past Tj-released locks of donor Ti enters
// Ti's wake — it may not touch objects Ti still needs, cannot commit
// before Ti, and is cascaded by the driver if Ti aborts.
type RAL struct{ donation }

// NewRAL returns the hybrid locking protocol under the given oracle.
func NewRAL(oracle AtomicityOracle) *RAL {
	p := &RAL{newDonation("ral", "lock on %s released per-observer by instance %d; entering its wake",
		func(holder, observer *core.Transaction) []int { return oracle.Cuts(holder, observer) })}
	p.graph = NewRSGT(oracle)
	return p
}

// SetLowWater implements Retirer: the embedded certifier owns all
// graph state, so retirement delegates wholesale (like SetTracer).
func (p *RAL) SetLowWater(instance int64) { p.graph.SetLowWater(instance) }

// FlushRetirement implements Retirer.
func (p *RAL) FlushRetirement() { p.graph.FlushRetirement() }

// RetireStats implements Retirer.
func (p *RAL) RetireStats() RetireStats { return p.graph.RetireStats() }
