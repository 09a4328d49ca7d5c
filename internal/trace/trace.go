// Package trace is the structured observability layer of the runtime:
// every protocol decision, driver transition, WAL append and store
// latch crossing becomes a typed Event that sinks can persist as JSONL,
// render as a Chrome trace_event timeline, or replay against the
// paper's offline theory (VerifyCycles checks that each online
// CycleReject names an RSG cycle the offline core.RSG confirms).
//
// The layer is built to cost nothing when off: a nil *Tracer (the
// default everywhere) reports Enabled() == false, and every
// instrumentation site guards event construction behind that check, so
// the disabled hot path is a single nil comparison with zero
// allocations (bench_test.go holds the guard).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names an event type. Decision kinds (grant, block, abort) are
// emitted by the drivers for every protocol uniformly; explanation
// kinds (cycle-reject, deadlock, lock-wait, ...) are emitted by the
// protocol that made the decision and carry its reasoning.
type Kind string

const (
	// KindBegin marks the admission of a transaction instance; the
	// event carries the full program so offline replay can reconstruct
	// unexecuted suffixes.
	KindBegin Kind = "begin"
	// KindGrant records an admitted (and therefore executed) operation.
	KindGrant Kind = "grant"
	// KindBlock records a deferred operation request.
	KindBlock Kind = "block"
	// KindAbortDecision records a protocol answering Abort to a request.
	KindAbortDecision Kind = "abort"
	// KindCycleReject is RSGT's (and RAL's) explanation for an Abort:
	// the concrete RSG cycle that admitting the operation would close,
	// with op/unit nodes and I/D/F/B arc kinds.
	KindCycleReject Kind = "cycle-reject"
	// KindConflictCycle is SGT's explanation for an Abort: the
	// transaction-granularity serialization-graph cycle.
	KindConflictCycle Kind = "conflict-cycle"
	// KindDeadlock is a locking protocol's explanation for an Abort:
	// the waits-for cycle the request would close.
	KindDeadlock Kind = "deadlock"
	// KindLockWait is a locking protocol's explanation for a Block: the
	// holders the requester now waits on.
	KindLockWait Kind = "lock-wait"
	// KindTimestampReject is TO's explanation for an Abort: the request
	// arrived late with respect to younger accesses.
	KindTimestampReject Kind = "ts-reject"
	// KindDonate records altruistic lock donation at a unit boundary.
	KindDonate Kind = "donate"
	// KindWake records a transaction entering a donor's wake.
	KindWake Kind = "wake"
	// KindCommit marks a committed instance.
	KindCommit Kind = "commit"
	// KindTxnAbort marks an aborted instance (protocol decision, stall
	// victimization, recoverability or cascade; see Reason).
	KindTxnAbort Kind = "txn-abort"
	// KindFault records a driver-level fault-point firing (Reason names
	// the point, e.g. "txn.abort" or "sched.grant.delay").
	KindFault Kind = "fault"
	// KindShed records the admission controller changing the effective
	// multiprogramming level under an abort storm (Reason carries the
	// new limit).
	KindShed Kind = "shed"
	// KindWedge records the stall watchdog declaring the run wedged;
	// Reason carries the diagnosis.
	KindWedge Kind = "wedge"
	// KindCancel records the run context being canceled and the engine
	// starting its Recover-stage unwind; Reason carries the
	// cancellation cause. Per-instance txn-abort events (reason
	// "canceled") follow for every unwound instance.
	KindCancel Kind = "cancel"
	// KindWALAppend records one write-ahead-log append.
	KindWALAppend Kind = "wal-append"
	// KindWALRotate records the segmented log sealing its current
	// segment and opening the next; Value carries the first GSN of the
	// new segment.
	KindWALRotate Kind = "wal-rotate"
	// KindWALGroupCommit records one group-commit flush: the log's
	// committer draining its queue into a single fsync. Value carries
	// the records in the batch.
	KindWALGroupCommit Kind = "wal-group-commit"
	// KindStoreRead records one read under the store latch.
	KindStoreRead Kind = "store-read"
	// KindStoreWrite records one write under the store latch.
	KindStoreWrite Kind = "store-write"
)

// Event is one structured trace record. Fields are omitted from the
// JSONL encoding when empty; (Kind, TS) are always present.
type Event struct {
	// TS is nanoseconds since the tracer's epoch (its construction).
	TS int64 `json:"ts"`
	// Kind tags the event.
	Kind Kind `json:"kind"`
	// Protocol is the emitting protocol's name, when protocol-scoped.
	Protocol string `json:"protocol,omitempty"`
	// Instance is the runtime transaction instance number.
	Instance int64 `json:"instance,omitempty"`
	// Txn is the program's transaction ID.
	Txn int `json:"txn,omitempty"`
	// Seq is the operation's position in its program.
	Seq int `json:"seq,omitempty"`
	// Op renders the operation in paper notation, e.g. "r1[x]".
	Op string `json:"op,omitempty"`
	// Object names the accessed object for storage events.
	Object string `json:"object,omitempty"`
	// Order is the global execution sequence number of granted ops.
	Order int64 `json:"order,omitempty"`
	// Tick is the deterministic driver's logical clock.
	Tick int64 `json:"tick,omitempty"`
	// Reason qualifies aborts and rejections.
	Reason string `json:"reason,omitempty"`
	// Value carries the stored value for storage events.
	Value int64 `json:"value,omitempty"`
	// Version carries the object version for storage events.
	Version uint64 `json:"version,omitempty"`
	// Blockers lists the instances a lock-wait blocks on.
	Blockers []int64 `json:"blockers,omitempty"`
	// Program is the instance's full program in paper notation
	// ("r1[x] w1[y]"), set on begin events.
	Program string `json:"program,omitempty"`
	// Cycle is the rejected cycle for cycle-reject, conflict-cycle and
	// deadlock events.
	Cycle *Cycle `json:"cycle,omitempty"`
}

// Cycle is a directed cycle in a scheduler's graph: RSG operation
// vertices for RSGT, transaction vertices for SGT and the waits-for
// graph (there Seq is -1 and Op empty).
type Cycle struct {
	Nodes []CycleNode `json:"nodes"`
	Arcs  []CycleArc  `json:"arcs"`
}

// CycleNode is one vertex of a rejected cycle.
type CycleNode struct {
	Instance int64  `json:"instance"`
	Txn      int    `json:"txn"`
	Seq      int    `json:"seq"`
	Op       string `json:"op,omitempty"`
}

// CycleArc connects two nodes (by index) with the arc kinds that the
// scheduler's graph carries for the pair: "I", "D", "F", "B" masks for
// RSG cycles, "C" for conflict arcs, "W" for waits-for edges.
type CycleArc struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Kind string `json:"kind"`
}

// String renders the cycle as a one-line chain:
// "T3.1 r3[a] -D,F-> T5.0 r5[b] -I-> ... -B-> T3.1 r3[a]".
func (c *Cycle) String() string {
	if c == nil || len(c.Nodes) == 0 {
		return "(empty cycle)"
	}
	label := func(n CycleNode) string {
		if n.Seq < 0 {
			return fmt.Sprintf("T%d(i%d)", n.Txn, n.Instance)
		}
		return fmt.Sprintf("T%d.%d %s", n.Txn, n.Seq, n.Op)
	}
	var sb strings.Builder
	for i, a := range c.Arcs {
		if i == 0 {
			sb.WriteString(label(c.Nodes[a.From]))
		}
		fmt.Fprintf(&sb, " -%s-> %s", a.Kind, label(c.Nodes[a.To]))
	}
	return sb.String()
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls: the concurrent driver emits from every worker, and the
// Tracer forwards without a lock of its own.
type Sink interface {
	Emit(Event)
}

// Tracer stamps and fans events to a sink. A nil Tracer — or one built
// over a nil sink — is disabled: Enabled() is false and Emit is a
// no-op, so instrumentation sites can share one unconditional guard.
type Tracer struct {
	sink  Sink
	epoch time.Time
	// gate is the optional per-kind admission filter consulted by
	// Wants. Installed once before the tracer is shared (SetKindGate),
	// read-only afterwards.
	gate func(Kind) bool
	// DotSink, when set before use, receives named Graphviz snapshots
	// (rejected RSG cycles) as they occur.
	DotSink func(name, dot string)
	dotSeq  atomic.Int64
}

// New returns a tracer over the sink. A nil sink yields a disabled
// tracer whose instrumentation costs a nil check and nothing else.
func New(sink Sink) *Tracer {
	//rsvet:allow detlint -- epoch for observational event timestamps; replay compares decisions, never TS
	return &Tracer{sink: sink, epoch: time.Now()}
}

// Enabled reports whether events are being recorded. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// SetKindGate installs a per-kind admission filter consulted by Wants.
// Hot instrumentation sites (operation grants, store latch crossings,
// WAL appends) guard event construction behind Wants, so a gate lets
// an always-on observability plane sample high-volume kinds before the
// event is even built. Install before the tracer is shared with a run;
// the gate must be safe for concurrent calls.
func (t *Tracer) SetKindGate(gate func(Kind) bool) { t.gate = gate }

// Wants reports whether an event of the given kind should be
// constructed and emitted: the tracer is enabled and the kind gate (if
// any) admits the kind. Sites without sampling semantics keep guarding
// with Enabled; events emitted past a rejecting gate are still
// forwarded — the gate is a site-side economy, not a sink-side filter.
// Safe on nil.
func (t *Tracer) Wants(k Kind) bool {
	if !t.Enabled() {
		return false
	}
	if t.gate != nil {
		return t.gate(k)
	}
	return true
}

// Emit stamps the event (if TS is zero) and forwards it to the sink.
// Safe on nil and on disabled tracers.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	if ev.TS == 0 {
		//rsvet:allow detlint -- observational timestamp on trace events; replay compares decisions, never TS
		ev.TS = time.Since(t.epoch).Nanoseconds()
	}
	t.sink.Emit(ev)
}

// Sink returns the sink the tracer forwards to (nil when disabled).
// Observability planes use it to tee an existing tracer's output into
// their own fan-out without re-wiring the call sites.
func (t *Tracer) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// EmitDot forwards a named Graphviz snapshot to the DotSink, if one is
// installed. The name is suffixed with a monotone sequence number.
func (t *Tracer) EmitDot(name, dot string) {
	if !t.Enabled() {
		return
	}
	n := t.dotSeq.Add(1)
	if t.DotSink != nil {
		t.DotSink(fmt.Sprintf("%s-%d", name, n), dot)
	}
}

// Buffer is an in-memory sink, the default for CLIs that post-process
// the trace (explanations, verification, export).
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer returns an empty buffer sink.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit implements Sink.
func (b *Buffer) Emit(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, ev)
}

// Events returns a copy of the recorded events in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// WriteJSONL encodes events as JSONL, one event per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CountKinds tallies events by kind, for run summaries.
func CountKinds(events []Event) map[Kind]int {
	out := make(map[Kind]int)
	for _, ev := range events {
		out[ev.Kind]++
	}
	return out
}
