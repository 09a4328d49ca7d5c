// Package txn is the transaction runtime: it executes declared
// transaction programs against the storage substrate under a pluggable
// concurrency-control protocol (internal/sched), handling blocking,
// deadlock victimization, aborts with cascading rollback, restarts and
// commit ordering — and it emits the observed committed schedule so
// the offline theory (internal/core) can certify every run.
//
// The lifecycle itself — admission, pre-issue checks, protocol
// consultation, operation application with dirty-data tracking, commit
// gating, cascading abort, restart accounting, degradation, the logical
// clock, trace and metrics emission, result construction — lives once
// in internal/engine. This package contributes the two drivers over
// those stages, which keep only the loop, the locks and the waits:
//
//   - Runner, a deterministic discrete-event loop: given the same
//     seed, programs and protocol, a run reproduces exactly;
//   - ConcurrentRunner, a sharded goroutine worker pool exercising the
//     same pipeline under real parallelism.
//
// Both accept a context (RunContext); cancellation unwinds in-flight
// instances through the engine's Recover stage.
package txn

import "relser/internal/engine"

// Re-exported engine pipeline types. The runtime's configuration,
// result and lifecycle vocabulary is defined by internal/engine; these
// aliases keep this package the stable import point for callers and
// tests.
type (
	// Config describes one run (engine.Config).
	Config = engine.Config
	// Semantics computes write values from prior reads.
	Semantics = engine.Semantics
	// DefaultSemantics writes txnID*1000 + seq.
	DefaultSemantics = engine.DefaultSemantics
	// Result aggregates a run.
	Result = engine.Result
	// Event is one executed operation in global execution order.
	Event = engine.Event
	// Span records one committed instance's lifetime.
	Span = engine.Span
	// RecoveryProperties classifies the committed execution in the
	// recoverability hierarchy.
	RecoveryProperties = engine.RecoveryProperties
	// WedgeError is the stall watchdog's diagnosis.
	WedgeError = engine.WedgeError
	// Stage names an engine lifecycle stage (for Config.Hooks).
	Stage = engine.Stage
	// Hooks observes lifecycle stage transitions, one optional function
	// per stage.
	Hooks = engine.Hooks
	// Instance is one in-flight transaction incarnation
	// (engine.Instance), the argument hook functions receive.
	Instance = engine.Instance
)

// Lifecycle stages, re-exported for hook consumers.
const (
	StageAdmit   = engine.StageAdmit
	StageIssue   = engine.StageIssue
	StageDecide  = engine.StageDecide
	StageApply   = engine.StageApply
	StageCommit  = engine.StageCommit
	StageAbort   = engine.StageAbort
	StageRecover = engine.StageRecover
)
