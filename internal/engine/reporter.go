package engine

import (
	"fmt"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/trace"
)

// reporter bundles a run's tracer and metrics instruments so both
// drivers share one emission discipline — it is the engine-owned
// counterpart of the Result construction, resolved once per run.
// Counters are resolved at construction; without a registry they stay
// nil, and nil instruments and a nil tracer are no-ops, so every
// method is safe — and free of allocations — when tracing and metrics
// are disabled.
type reporter struct {
	tr    *trace.Tracer
	proto string

	ops         *metrics.Counter
	committed   *metrics.Counter
	aborts      *metrics.Counter
	blocks      *metrics.Counter
	restarts    *metrics.Counter
	commitWaits *metrics.Counter
	recovAborts *metrics.Counter
	active      *metrics.Gauge
	latency     *metrics.Histogram
	blockWait   *metrics.Histogram

	// Resilience instruments: fault-point firings honored by the
	// driver, deadline overruns, admission-control shedding, the stall
	// watchdog and run-context cancellation.
	deadlines    *metrics.Counter
	injAborts    *metrics.Counter
	injDelays    *metrics.Counter
	loadSheds    *metrics.Counter
	livelockEsc  *metrics.Counter
	wedges       *metrics.Counter
	cancelAborts *metrics.Counter
	degraded     *metrics.Gauge
	effMPL       *metrics.Gauge

	// Bounded-memory certification gauges, refreshed from the
	// protocol's RetireStats at each commit (cheap struct copy).
	rsgLive    *metrics.Gauge
	rsgRetired *metrics.Gauge
	rsgEpochs  *metrics.Gauge
	rsgHits    *metrics.Gauge
	rsgMisses  *metrics.Gauge
}

func newReporter(cfg *Config) reporter {
	o := reporter{tr: cfg.Tracer, proto: cfg.Protocol.Name()}
	if reg := cfg.Metrics; reg != nil {
		o.ops = reg.Counter("txn.ops_executed")
		o.committed = reg.Counter("txn.committed")
		o.aborts = reg.Counter("txn.aborts")
		o.blocks = reg.Counter("txn.blocks")
		o.restarts = reg.Counter("txn.restarts")
		o.commitWaits = reg.Counter("txn.commit_waits")
		o.recovAborts = reg.Counter("txn.recoverability_aborts")
		o.active = reg.Gauge("txn.active")
		o.latency = reg.Histogram("txn.latency")
		o.blockWait = reg.Histogram("txn.block_latency")
		o.deadlines = reg.Counter("txn.deadline_aborts")
		o.injAborts = reg.Counter("txn.injected_aborts")
		o.injDelays = reg.Counter("txn.injected_delays")
		o.loadSheds = reg.Counter("txn.load_sheds")
		o.livelockEsc = reg.Counter("txn.livelock_escalations")
		o.wedges = reg.Counter("txn.watchdog_wedges")
		o.cancelAborts = reg.Counter("txn.cancel_aborts")
		o.degraded = reg.Gauge("txn.degraded")
		o.effMPL = reg.Gauge("txn.effective_mpl")
		o.effMPL.Set(float64(cfg.MPL))
		if _, ok := cfg.Protocol.(sched.Retirer); ok {
			o.rsgLive = reg.Gauge("sched.rsg.live_vertices")
			o.rsgRetired = reg.Gauge("sched.rsg.retired_total")
			o.rsgEpochs = reg.Gauge("sched.rsg.retire_epochs")
			o.rsgHits = reg.Gauge("sched.rsg.fastpath_hits")
			o.rsgMisses = reg.Gauge("sched.rsg.fastpath_misses")
		}
	}
	return o
}

// retire refreshes the bounded-memory gauges from the protocol's
// current retirement state.
func (o *reporter) retire(st sched.RetireStats) {
	o.rsgLive.Set(float64(st.LiveVertices))
	o.rsgRetired.Set(float64(st.RetiredVertices))
	o.rsgEpochs.Set(float64(st.GraphEpochs))
	o.rsgHits.Set(float64(st.FastPathHits))
	o.rsgMisses.Set(float64(st.FastPathMisses))
}

// begin records an instance's admission.
func (o *reporter) begin(st *Instance, clock int64) {
	o.active.Add(1)
	if o.tr.Wants(trace.KindBegin) {
		o.tr.Emit(trace.Event{
			Kind: trace.KindBegin, Protocol: o.proto,
			Instance: st.ID, Txn: int(st.Program.ID),
			Program: st.Program.String(), Tick: clock,
		})
	}
}

// grant records an executed operation; order is its global execution
// sequence number. Ends any open block interval.
func (o *reporter) grant(st *Instance, op core.Op, order, clock int64) {
	o.ops.Inc()
	if st.BlockedSince >= 0 {
		o.blockWait.Observe(float64(clock - st.BlockedSince))
		st.BlockedSince = -1
	}
	if o.tr.Wants(trace.KindGrant) {
		ev := trace.Event{
			Kind: trace.KindGrant, Protocol: o.proto,
			Instance: st.ID, Txn: int(st.Program.ID), Seq: op.Seq,
			Op: op.String(), Object: op.Object, Order: order, Tick: clock,
		}
		if op.Kind == core.WriteOp {
			ev.Value = int64(st.Writes[op.Object])
		}
		o.tr.Emit(ev)
	}
}

// block records a protocol Block decision; the block interval closes
// at the next grant (or disappears with the instance on abort).
func (o *reporter) block(st *Instance, op core.Op, clock int64) {
	o.blocks.Inc()
	if st.BlockedSince < 0 {
		st.BlockedSince = clock
	}
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindBlock, Protocol: o.proto,
			Instance: st.ID, Txn: int(st.Program.ID), Seq: op.Seq,
			Op: op.String(), Object: op.Object, Tick: clock,
		})
	}
}

// abortDecision records a protocol Abort decision for a request (the
// per-instance txn-abort events follow from the cascade).
func (o *reporter) abortDecision(st *Instance, op core.Op, clock int64) {
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindAbortDecision, Protocol: o.proto,
			Instance: st.ID, Txn: int(st.Program.ID), Seq: op.Seq,
			Op: op.String(), Object: op.Object, Tick: clock,
		})
	}
}

// commit records a committed instance.
func (o *reporter) commit(st *Instance, clock int64) {
	o.committed.Inc()
	o.active.Add(-1)
	o.latency.Observe(float64(clock - st.StartClock))
	if o.tr.Wants(trace.KindCommit) {
		o.tr.Emit(trace.Event{
			Kind: trace.KindCommit, Protocol: o.proto,
			Instance: st.ID, Txn: int(st.Program.ID), Tick: clock,
		})
	}
}

// txnAbort records one aborted instance (direct victim or cascade
// co-victim) with the driver's reason.
func (o *reporter) txnAbort(st *Instance, reason string, clock int64) {
	o.aborts.Inc()
	o.active.Add(-1)
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindTxnAbort, Protocol: o.proto,
			Instance: st.ID, Txn: int(st.Program.ID),
			Reason: reason, Tick: clock,
		})
	}
}

// cancel records the Recover-stage unwind starting: the run context
// was canceled with the given cause and in-flight instances are about
// to be aborted.
func (o *reporter) cancel(cause string, clock int64) {
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindCancel, Protocol: o.proto,
			Reason: cause, Tick: clock,
		})
	}
}

// fault records a Check-stage fault-point firing (injected abort or
// grant delay) against the instance it hit.
func (o *reporter) fault(point fault.Point, inst int64, clock int64) {
	switch point {
	case fault.TxnForcedAbort:
		o.injAborts.Inc()
	case fault.SchedGrantDelay:
		o.injDelays.Inc()
	}
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindFault, Protocol: o.proto,
			Instance: inst, Reason: string(point), Tick: clock,
		})
	}
}

// shed records the admission controller changing the effective
// multiprogramming level; dropped distinguishes a shed (halving) from
// a recovery step.
func (o *reporter) shed(effective, mpl int, dropped bool, clock int64) {
	if dropped {
		o.loadSheds.Inc()
	}
	o.effMPL.Set(float64(effective))
	if effective < mpl {
		o.degraded.Set(1)
	} else {
		o.degraded.Set(0)
	}
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindShed, Protocol: o.proto,
			Reason: fmt.Sprintf("effective-mpl=%d/%d", effective, mpl), Tick: clock,
		})
	}
}

// livelockEscalation records the detector widening restart backoff.
func (o *reporter) livelockEscalation(level int, clock int64) {
	o.livelockEsc.Inc()
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{
			Kind: trace.KindFault, Protocol: o.proto,
			Reason: fmt.Sprintf("livelock-escalation level=%d", level), Tick: clock,
		})
	}
}

// wedge records the watchdog declaring the run wedged.
func (o *reporter) wedge(we *WedgeError) {
	o.wedges.Inc()
	if o.tr.Enabled() {
		o.tr.Emit(trace.Event{Kind: trace.KindWedge, Protocol: o.proto, Reason: we.Error()})
	}
}
