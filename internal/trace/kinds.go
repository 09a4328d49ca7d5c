package trace

// allKinds is the registry of every event kind the tracer emits.
// A Kind constructed from a string literal that is not in this set is
// a typo; the rsvet registrydrift analyzer enforces membership
// statically at every conversion site.
var allKinds = []Kind{
	KindBegin,
	KindGrant,
	KindBlock,
	KindAbortDecision,
	KindCycleReject,
	KindConflictCycle,
	KindDeadlock,
	KindLockWait,
	KindTimestampReject,
	KindDonate,
	KindWake,
	KindCommit,
	KindTxnAbort,
	KindFault,
	KindShed,
	KindWedge,
	KindCancel,
	KindWALAppend,
	KindWALRotate,
	KindWALGroupCommit,
	KindStoreRead,
	KindStoreWrite,
}

// Kinds returns the registered event kinds (a copy).
func Kinds() []Kind {
	return append([]Kind(nil), allKinds...)
}
