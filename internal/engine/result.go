package engine

import (
	"fmt"
	"sort"
	"strings"

	"relser/internal/core"
	"relser/internal/sched"
)

// Event is one executed operation in the global execution order.
type Event struct {
	Instance int64
	Program  *core.Transaction
	Op       core.Op
	// Order is the global execution sequence number; the committed
	// trace is sorted by it.
	Order int64
}

// Span records one committed instance's lifetime in the driver's
// logical clock (ticks for the deterministic driver, executed
// operations for the concurrent driver).
type Span struct {
	Instance int64
	Program  int // transaction ID of the program
	Start    int64
	End      int64
	// CommitSeq is the commit moment on the execution-order clock of
	// Event.Order (the op counter), comparable with event orders; the
	// recovery-property certifier uses it.
	CommitSeq int64
}

// Result aggregates a run.
type Result struct {
	Protocol    string
	Ticks       int
	OpsExecuted int
	Committed   int
	Aborts      int
	Blocks      int
	CommitWaits int
	Restarts    int
	// RecoverabilityAborts counts aborts issued by the driver (not the
	// protocol) because an access would have closed a dirty-data
	// dependency cycle, making commit ordering impossible.
	RecoverabilityAborts int
	// DeadlineAborts counts driver aborts for instances that exceeded
	// Config.Deadline.
	DeadlineAborts int
	// CancelAborts counts instances aborted by the Recover stage when
	// the run context was canceled mid-flight.
	CancelAborts int
	// InjectedAborts counts txn.abort fault firings at the Check stage;
	// InjectedDelays counts sched.grant.delay firings.
	InjectedAborts int
	InjectedDelays int
	// LivelockEscalations counts restart-backoff escalations by the
	// livelock detector.
	LivelockEscalations int
	// LoadSheds counts admission-limit halvings by the abort-storm
	// shedder; MinEffectiveMPL is the lowest effective multiprogramming
	// level the run degraded to (== Config.MPL when never shed).
	LoadSheds       int
	MinEffectiveMPL int
	// AvgConcurrency is the mean number of in-flight instances per
	// tick.
	AvgConcurrency float64
	// LatencyMean and LatencyP95 summarize committed-instance latency
	// in logical time units (driver ticks for the deterministic
	// runner, executed operations for the concurrent runner), measured
	// from admission to commit.
	LatencyMean float64
	LatencyP95  float64
	// Retire reports the protocol's bounded-memory state at run end
	// (zero when the protocol keeps no retirable state).
	Retire sched.RetireStats
	// Trace is the committed-instance execution trace, in order.
	Trace []Event
	// Spans records committed instances' lifetimes for Timeline.
	Spans []Span
	// Programs are the committed programs (same pointers as Config).
	Programs []*core.Transaction
	oracle   sched.AtomicityOracle
}

// CommittedSchedule reconstructs the committed execution as a
// core.Schedule together with the relative atomicity specification the
// oracle assigned the committed programs. This is the bridge from the
// online runtime back to the paper's offline theory: Theorem 1's graph
// test certifies the run.
func (res *Result) CommittedSchedule() (*core.Schedule, *core.Spec, error) {
	if res.Committed == 0 {
		return nil, nil, fmt.Errorf("txn: no committed transactions to reconstruct")
	}
	ts, err := core.NewTxnSet(res.Programs...)
	if err != nil {
		return nil, nil, fmt.Errorf("txn: committed programs do not form a set: %v", err)
	}
	s, err := core.NewScheduleFunc(ts, len(res.Trace), func(pos int) core.Op { return res.Trace[pos].Op })
	if err != nil {
		return nil, nil, fmt.Errorf("txn: committed trace is not a schedule: %v", err)
	}
	oracle := res.oracle
	if oracle == nil {
		oracle = sched.AbsoluteOracle{}
	}
	sp, err := core.SpecFromCuts(ts, oracle.Cuts)
	if err != nil {
		return nil, nil, fmt.Errorf("txn: oracle cut invalid: %v", err)
	}
	return s, sp, nil
}

// Verify certifies the run with the paper's tools: the committed
// schedule must be relatively serializable under the oracle's
// specification (RSG acyclic, Theorem 1). Protocols in this module
// guarantee it; NoCC runs are expected to fail here under contention.
func (res *Result) Verify() error {
	s, sp, err := res.CommittedSchedule()
	if err != nil {
		return err
	}
	rsg := core.BuildRSG(s, sp)
	if !rsg.Acyclic() {
		return fmt.Errorf("txn: committed schedule is not relatively serializable; RSG cycle through %v", rsg.Cycle())
	}
	return nil
}

// String summarizes the result.
func (res *Result) String() string {
	return fmt.Sprintf("%s: committed=%d aborts=%d restarts=%d blocks=%d ticks=%d ops=%d mpl=%.2f",
		res.Protocol, res.Committed, res.Aborts, res.Restarts, res.Blocks, res.Ticks, res.OpsExecuted, res.AvgConcurrency)
}

// RecoveryProperties reports where the run's committed execution sits
// in the classical recoverability hierarchy (Hadzilacos; Bernstein,
// Hadzilacos, Goodman):
//
//   - Recoverable: every committed reader commits after the writer it
//     read from. The runtime's commit gating enforces this, so every
//     run should report it.
//   - ACA (avoids cascading aborts): every read happens after the
//     writer's commit — no dirty reads among committed transactions.
//     Lock-free protocols (SGT, RSGT) legitimately violate it: they
//     admit reads of uncommitted data and rely on the driver's cascade
//     machinery.
//   - Strict: additionally, no write overwrites an uncommitted value.
//     Strict 2PL runs report it.
//
// The analysis sees only committed instances (aborted instances'
// operations are rolled back and never enter the trace), so it
// describes the durable execution, which is exactly what recovery
// cares about.
type RecoveryProperties struct {
	Recoverable bool
	ACA         bool
	Strict      bool
	// Violation describes the first property violation found, for
	// diagnostics.
	Violation string
}

// RecoveryProperties analyses the committed trace.
func (res *Result) RecoveryProperties() (RecoveryProperties, error) {
	props := RecoveryProperties{Recoverable: true, ACA: true, Strict: true}
	if len(res.Trace) == 0 {
		return props, fmt.Errorf("txn: no committed trace to analyse")
	}
	commitSeq := make(map[int64]int64, len(res.Spans))
	for _, sp := range res.Spans {
		commitSeq[sp.Instance] = sp.CommitSeq
	}
	note := func(target *bool, format string, args ...any) {
		if *target && props.Violation == "" {
			props.Violation = fmt.Sprintf(format, args...)
		}
		*target = false
	}
	type version struct {
		writer int64
		order  int64
	}
	current := make(map[string]version)
	for _, ev := range res.Trace {
		cw, hasWriter := current[ev.Op.Object]
		me := ev.Instance
		if ev.Op.Kind == core.ReadOp {
			if hasWriter && cw.writer != me {
				wCommit, ok := commitSeq[cw.writer]
				if !ok {
					continue
				}
				myCommit := commitSeq[me]
				if myCommit < wCommit {
					note(&props.Recoverable, "instance %d read %s from %d but committed first", me, ev.Op.Object, cw.writer)
				}
				if ev.Order < wCommit {
					note(&props.ACA, "instance %d read %s before writer %d committed", me, ev.Op.Object, cw.writer)
					props.Strict = false
				}
			}
			continue
		}
		if hasWriter && cw.writer != me {
			if wCommit, ok := commitSeq[cw.writer]; ok && ev.Order < wCommit {
				note(&props.Strict, "instance %d overwrote %s before writer %d committed", me, ev.Op.Object, cw.writer)
			}
		}
		current[ev.Op.Object] = version{writer: me, order: ev.Order}
	}
	// The hierarchy: strict ⇒ ACA ⇒ recoverable.
	if !props.ACA {
		props.Strict = false
	}
	if !props.Recoverable {
		props.ACA = false
		props.Strict = false
	}
	return props, nil
}

// Timeline renders the committed instances' lifetimes as an ASCII
// chart, one row per instance in commit order, scaled to the given
// width. It makes the concurrency structure of a run visible at a
// glance: overlapping bars are transactions in flight together.
func (res *Result) Timeline(width int) string {
	if len(res.Spans) == 0 {
		return "(no committed instances)\n"
	}
	if width < 10 {
		width = 10
	}
	spans := append([]Span(nil), res.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var maxEnd int64
	for _, sp := range spans {
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	scale := func(t int64) int {
		p := int(t * int64(width-1) / maxEnd)
		if p >= width {
			p = width - 1
		}
		return p
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline (logical clock 0..%d, %s runs)\n", maxEnd, res.Protocol)
	for _, sp := range spans {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		a, b := scale(sp.Start), scale(sp.End)
		for i := a; i <= b && i < width; i++ {
			row[i] = '='
		}
		if a < width {
			row[a] = '|'
		}
		if b < width {
			row[b] = '>'
		}
		fmt.Fprintf(&sb, "T%-3d %s\n", sp.Program, row)
	}
	return sb.String()
}
