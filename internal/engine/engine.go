// Package engine is the unified transaction-execution pipeline: one
// explicit per-transaction lifecycle state machine
//
//	Admit → Check → Issue → Decide → Apply → Commit/Abort → Recover
//
// shared by every driver. The deterministic tick driver (txn.Runner)
// and the sharded goroutine driver (txn.ConcurrentRunner) are thin
// loops — single-goroutine vs. worker pool — over the same stage
// implementations living here: admission and instance bookkeeping, the
// pre-issue checks (deadline, injected aborts and grant delays),
// protocol consultation, operation application with dirty-data
// tracking, commit gating, cascading abort with cross-transaction
// rollback, restart accounting and graceful degradation (shedding,
// livelock escalation). Each stage records what it did through the
// engine-owned reporter, which turns a run into a Result plus trace and
// metrics emission, at the engine-owned logical clock (Clock): the
// drivers keep only the loop, the locks and the waits.
//
// Cancellation is one mechanism throughout: every run threads a
// context.Context through the stages, the scheduler's grant/wait
// paths (sched.OpRequest.Ctx), the storage substrate's fault stalls
// and the fault injector's wedge points. Per-run deadlines are
// context deadlines; the concurrent driver's stall watchdog escalates
// by canceling the run context with its WedgeError as the cause. A
// canceled run unwinds through the Recover stage: every in-flight
// instance is aborted with its effects rolled back and its WAL abort
// record appended, so the store is invariant-clean and the log
// recoverable exactly as after any other abort.
package engine

// Stage names one lifecycle stage of the engine pipeline. Stage hooks
// (Config.Hooks) observe an instance crossing each stage; the tests
// use them to cancel runs at precise lifecycle points.
type Stage int

const (
	// StageAdmit is instance creation: an admission slot was free, the
	// protocol saw Begin, the WAL holds the begin record.
	StageAdmit Stage = iota
	// StageIssue is the moment Core.Step submits the instance's next
	// operation to the protocol.
	StageIssue
	// StageDecide is the protocol's verdict on the issued operation
	// (grant, block or abort).
	StageDecide
	// StageApply is a granted operation executing against the store.
	StageApply
	// StageCommit is a finished instance committing, in two halves:
	// Publish releases its scheduler and engine state, Acknowledge
	// counts it once the commit record is durable. The Commit hook
	// fires at Acknowledge.
	StageCommit
	// StageAbort is an abort cascade rolling an instance (and its
	// dirty-read dependents) back.
	StageAbort
	// StageRecover is the cancellation unwind: the run context was
	// canceled and the engine is aborting every in-flight instance to
	// leave the store invariant-clean and the WAL recoverable.
	StageRecover
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageAdmit:
		return "admit"
	case StageIssue:
		return "issue"
	case StageDecide:
		return "decide"
	case StageApply:
		return "apply"
	case StageCommit:
		return "commit"
	case StageAbort:
		return "abort"
	case StageRecover:
		return "recover"
	default:
		return "unknown"
	}
}

// Hooks observes lifecycle stage transitions, one optional function
// per stage; the instance is the one crossing the stage (Recover is
// run-scoped and carries none). A nil field costs its transition a
// single nil check, so observers that only need the per-instance
// lifecycle — internal/obs assembles spans from Admit/Commit/Abort —
// leave the per-operation stages (Issue, Decide, Apply) undisturbed on
// the hot path. Hooks run synchronously on the driver's execution path
// under whatever locks that path holds, so they must be fast and must
// not call back into the engine; canceling the run context is the
// intended use. A hook copies what it needs and never keeps the
// *Instance, its maps or its slices: once committed, the instance is
// reset and reused for a later admission (hookshape checks all three).
type Hooks struct {
	Admit  func(*Instance)
	Issue  func(*Instance)
	Decide func(*Instance)
	Apply  func(*Instance)
	Commit func(*Instance)
	Abort  func(*Instance)
	// Recover observes the cancellation unwind's start; the unwound
	// instances each cross Abort afterwards.
	Recover func()
}
