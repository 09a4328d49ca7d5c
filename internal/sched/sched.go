// Package sched implements online concurrency-control protocols behind
// a single admission interface:
//
//   - NoCC     — allow-everything baseline (measures raw interleaving);
//   - S2PL     — strict two-phase locking with waits-for deadlock
//     detection [EGLT76];
//   - SGT      — serialization graph testing at transaction granularity
//     [Bad79, Cas81], which is RSGT under AbsoluteOracle (Lemma 1);
//   - RSGT     — relative serialization graph testing: the protocol §3
//     of the paper proposes, maintaining a graph with the paper's RSG's
//     reachability (I-arcs and staircase F/B arcs) incrementally over
//     operations and admitting exactly the
//     relatively serializable executions (Theorem 1);
//   - Altruistic — altruistic locking for long-lived transactions
//     [SGMA87], which §5 presents as the special case relative
//     atomicity generalizes.
//
// Protocols are sequential state machines: the driver (internal/txn)
// serializes calls into them. The driver may run transactions on
// goroutines; it runs a protocol that is not ShardSafe on one driver
// stripe, whose mutex provides the required mutual exclusion.
package sched

import (
	"context"
	"sort"
	"sync"

	"relser/internal/core"
)

// Decision is a protocol's answer to an operation request.
type Decision int

const (
	// Grant admits the operation; the driver executes it immediately.
	Grant Decision = iota
	// Block defers the operation; the driver retries it later.
	Block
	// Abort instructs the driver to abort the requesting transaction
	// (it may restart as a fresh instance).
	Abort
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Grant:
		return "grant"
	case Block:
		return "block"
	case Abort:
		return "abort"
	default:
		return "unknown"
	}
}

// OpRequest identifies the next operation of a running transaction
// instance. Instance numbers are unique across restarts (a restarted
// transaction is a new instance of the same program).
type OpRequest struct {
	Instance int64
	Program  *core.Transaction
	Seq      int
	Op       core.Op
	// Ctx is the run context. Protocols with wait disciplines consult
	// it on their block paths (Canceled) so a canceled requester is
	// refused with Abort instead of being queued into wait state it
	// will never leave. Nil means "never canceled" (offline replays,
	// direct protocol tests).
	Ctx context.Context
}

// Canceled reports whether the request's run context has been
// canceled. Nil-context requests are never canceled. It polls the
// context's Done channel, which takes no lock once the channel exists
// (ctx.Err takes the context's mutex, shared by every worker).
func (req OpRequest) Canceled() bool {
	if req.Ctx == nil {
		return false
	}
	select {
	case <-req.Ctx.Done():
		return true
	default:
		return false
	}
}

// Protocol is an online concurrency-control policy. The driver calls
// Begin once per instance, Request for each operation in program
// order (re-issuing after Block), and finally exactly one of Commit or
// Abort. On Grant the driver executes the operation immediately, so
// protocols treat granted operations as executed.
type Protocol interface {
	Name() string
	Begin(instance int64, program *core.Transaction)
	Request(req OpRequest) Decision
	// CanCommit reports whether the instance may commit now; protocols
	// with commit-ordering rules (altruistic wakes) return false until
	// their dependencies have committed. The driver retries.
	CanCommit(instance int64) bool
	Commit(instance int64)
	Abort(instance int64)
}

// ShardSafe marks protocols whose Request path may be invoked
// concurrently by the sharded driver for operations on different
// objects, with only per-object (shard) mutual exclusion supplied
// externally. The contract the concurrent driver guarantees in
// exchange:
//
//   - Request calls for the same object are serialized (the driver's
//     shard lock), so a protocol's per-object state sees ordered
//     accesses; cross-object Request calls may race and the protocol
//     must stripe or atomically guard any state they share;
//   - Begin, CanCommit, Commit and Abort are called under the driver's
//     exclusive world lock — never concurrently with any Request — so
//     instance-table maintenance needs no internal locking.
//
// Protocols that keep a single global structure consulted on every
// request (serialization graphs, wake disciplines) are not shard-safe;
// the driver runs them on one stripe, which serializes every request.
type ShardSafe interface {
	// ConcurrentShardSafe reports whether the instance honors the
	// contract above (a method rather than a bare marker so wrappers
	// can delegate dynamically).
	ConcurrentShardSafe() bool
}

// IsShardSafe reports whether the protocol opts into the sharded
// driver hot path.
func IsShardSafe(p Protocol) bool {
	s, ok := p.(ShardSafe)
	return ok && s.ConcurrentShardSafe()
}

// AtomicityOracle supplies relative atomicity specifications to the
// online protocols: Cuts returns the unit boundaries of transaction a
// relative to observer b, under core.UnitBounds's convention (an empty
// result means a is a single atomic unit for b). Implementations
// typically derive cuts from transaction types (bank audit vs customer
// transaction) rather than instances, as [Gar83] and [FÖ89] do.
//
// Contract: Cuts is a pure function of the two programs, is safe for
// concurrent use, and answers without allocating, with a slice the
// oracle keeps (computed once, when the specification is built). The
// slice is shared by every caller, which must not modify it. The
// protocols ask on every operation that needs an answer and keep no
// memo of their own.
type AtomicityOracle interface {
	Cuts(a, b *core.Transaction) []int
}

// AbsoluteOracle is the traditional model: every transaction is one
// atomic unit relative to every other.
type AbsoluteOracle struct{}

// Cuts returns no boundaries.
func (AbsoluteOracle) Cuts(_, _ *core.Transaction) []int { return nil }

// OracleFunc adapts a function to the AtomicityOracle interface; the
// function keeps the contract.
type OracleFunc func(a, b *core.Transaction) []int

// Cuts invokes the function.
func (f OracleFunc) Cuts(a, b *core.Transaction) []int { return f(a, b) }

// SpecOracle exposes a static core.Spec as an oracle for replaying
// fixed instances (e.g. the paper's figures) through the online
// protocols.
type SpecOracle struct{ Spec *core.Spec }

// Cuts returns the spec's stored boundaries of the pair.
func (o SpecOracle) Cuts(a, b *core.Transaction) []int { return o.Spec.Cuts(a.ID, b.ID) }

// sortedInstances returns map keys ascending, for deterministic
// iteration in decision paths.
func sortedInstances[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NoCC grants everything: the no-concurrency-control baseline. Useful
// for measuring how often uncontrolled interleavings violate relative
// serializability (its emitted schedules fail verification).
type NoCC struct{ mu sync.Mutex }

// NewNoCC returns the baseline protocol.
func NewNoCC() *NoCC { return &NoCC{} }

// Name implements Protocol.
func (*NoCC) Name() string { return "nocc" }

// ConcurrentShardSafe implements ShardSafe: the protocol is stateless.
func (*NoCC) ConcurrentShardSafe() bool { return true }

// Begin implements Protocol.
func (*NoCC) Begin(int64, *core.Transaction) {}

// Request implements Protocol: always Grant.
func (*NoCC) Request(OpRequest) Decision { return Grant }

// CanCommit implements Protocol.
func (*NoCC) CanCommit(int64) bool { return true }

// Commit implements Protocol.
func (*NoCC) Commit(int64) {}

// Abort implements Protocol.
func (*NoCC) Abort(int64) {}
