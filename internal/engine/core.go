package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/shard"
	"relser/internal/storage"
)

// Instance is one in-flight incarnation of a transaction program.
// Once committed it is reset and reused, maps and buffers included, for
// a later admission (see Hooks). Drivers own the synchronization: the
// deterministic driver touches instances single-threaded; the
// concurrent driver confines each instance to its worker on the
// operation path and to exclusive state-lock holders on lifecycle paths
// (Doomed is the one cross-worker flag, hence atomic).
type Instance struct {
	ID      int64
	Program *core.Transaction
	// Next is the program-order index of the next operation to issue.
	Next  int
	Undo  storage.UndoLog
	Reads map[int]storage.Value
	// DepsOn holds live instances whose uncommitted data this instance
	// read or overwrote; commit waits for them and their abort cascades
	// here. dependents is the reverse: live instances that depend on
	// this one.
	DepsOn     map[int64]bool
	dependents map[int64]bool
	Restarts   int
	// events are the instance's applied operations.
	events []Event
	Writes map[string]storage.Value
	// Done is set when all operations executed; the instance is waiting
	// to commit.
	Done bool
	// StartClock is the logical time at admission, for latency.
	StartClock int64
	// BlockedSince is the logical time the instance entered its current
	// block interval, or -1 when not blocked; the reporter's
	// block-latency histogram closes intervals at the next grant.
	BlockedSince int64
	// Doomed is set when a cascade initiated by another worker aborted
	// this instance; its worker observes the flag on next wake and
	// restarts the program (concurrent driver only).
	Doomed atomic.Bool

	// Set by Publish: the lane's ack for the commit record (nil without
	// a WAL) and the commit moment on the execution-order clock.
	ack       <-chan error
	commitSeq int64
	// reason is the reason of the cascade that aborted the instance,
	// for Restart's exhaustion error.
	reason string
}

// Pending is a program queued for (re-)admission; Restarts counts the
// aborts it has been through.
type Pending struct {
	Program  *core.Transaction
	Restarts int
}

// Core is the engine pipeline state shared by every driver: the
// instance table, dirty-writer stacks, the dirty-read dependency
// graph, the logical clock, WAL emission, degradation controllers and
// the reporter. A Core implements the lifecycle stages, and each stage
// records what it did at the clock it reads once; an operation's turn
// is Check, then Step (Issue, Decide, recoverability, Apply). Drivers
// supply only the loop (one goroutine on a TickClock, or a worker pool
// on the SeqClock), the locks and the waits:
//
//   - The deterministic driver calls everything single-threaded, the
//     Commit stage's Publish, AwaitAck and Acknowledge back to back.
//   - The concurrent driver calls Admit, Publish, Acknowledge,
//     AbortCascade, AbortAll and Restart under its exclusive state
//     lock, and AwaitAck between Publish and Acknowledge with no lock
//     held; Check under the shared state lock; Step under the shared
//     state lock plus the target object's stripe lock (so the stripe's
//     dirty stacks are stable). The dependency graph has its own leaf
//     mutex for operation-path mutations; lifecycle holders are
//     excluded from those by the state lock and access it directly.
type Core struct {
	Cfg    Config
	Router shard.Router

	// Active is the instance table, guarded by the driver's lifecycle
	// discipline (see type comment). activeIDs lists its keys ascending:
	// IDs are issued in increasing order, so admission appends.
	Active       map[int64]*Instance
	activeIDs    []int64
	nextInstance int64

	// dirty stacks uncommitted writers per object (innermost last),
	// partitioned by driver shard. Operation-path access requires the
	// object's shard lock in the concurrent driver.
	dirty []map[string][]int64

	// depMu guards every Instance.DepsOn and dependents among
	// concurrent operation-path holders; exclusive state holders access
	// them directly. Leaf mutex: never held across other locks.
	depMu sync.Mutex

	// walErr parks the first append or ack error until a driver folds
	// it into its run error.
	walErr atomic.Pointer[error]

	// execSeq is the global execution sequence: every applied operation
	// draws the next value as its order. It is the SeqClock.
	execSeq atomic.Int64

	// clock selects the logical clock; ticks and inFlight are the
	// TickClock and its per-tick in-flight samples (single-threaded).
	clock    Clock
	ticks    int64
	inFlight int64

	// Operation-path counters (atomic so the concurrent hot path needs
	// no extra locks); folded into the Result by Finalize.
	opsExecuted    atomic.Int64
	blocksTotal    atomic.Int64
	injectedAborts atomic.Int64
	injectedDelays atomic.Int64
	deadlineAborts atomic.Int64
	recovAborts    atomic.Int64
	cancelAborts   atomic.Int64

	// Degradation controllers; observe calls are lifecycle-locked.
	shed *shedder
	lv   livelock
	jit  *jitter

	latencies metrics.Stats
	rep       reporter

	// ret is the protocol's bounded-memory interface, resolved once
	// (nil when the protocol keeps no retirable state). The Admit and
	// Publish stages feed it the low-water mark, AbortAll unwinds
	// retirement-pending state, Finalize folds its stats into the
	// Result. All call sites are lifecycle-locked, so the retirement
	// calls never race Request.
	ret sched.Retirer

	// free holds reset committed instances for Admit, lifecycle-locked;
	// aborted ones stay with their driver and go to the collector.
	free []*Instance

	res Result
}

// Clock selects the engine's logical clock: the time base of deadlines,
// latencies, spans and trace ticks.
type Clock int

const (
	// SeqClock is the global execution sequence: time advances with
	// every applied operation. The concurrent driver runs on it.
	SeqClock Clock = iota
	// TickClock counts driver ticks, advanced by Tick. The
	// deterministic driver runs on it.
	TickClock
)

// NewCore validates the configuration (filling defaults) and prepares
// the shared pipeline state on the given clock.
func NewCore(cfg Config, clock Clock) (*Core, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Core{
		Cfg:    cfg,
		clock:  clock,
		Router: shard.NewRouter(cfg.Shards),
		Active: make(map[int64]*Instance),
		shed:   newShedder(cfg.MPL),
		jit:    newJitter(cfg.Seed),
	}
	c.dirty = make([]map[string][]int64, c.Router.Shards())
	for i := range c.dirty {
		c.dirty[i] = make(map[string][]int64)
	}
	c.rep = newReporter(&cfg)
	c.ret, _ = cfg.Protocol.(sched.Retirer)
	c.res.Protocol = cfg.Protocol.Name()
	c.res.oracle = cfg.Oracle
	// Every program commits exactly once: the committed record's final
	// sizes are known before the run.
	ops := 0
	for _, p := range cfg.Programs {
		ops += p.Len()
	}
	c.res.Trace = make([]Event, 0, ops)
	c.res.Spans = make([]Span, 0, len(cfg.Programs))
	c.res.Programs = make([]*core.Transaction, 0, len(cfg.Programs))
	return c, nil
}

// feedLowWater tells the protocol the lowest instance ID that could
// still receive a lifecycle call: all IDs below the minimum live ID
// (or below the next ID to be issued, when nothing is in flight) have
// finished for good. This is the pacemaker for the protocol's
// count-based retirement epochs. Lifecycle-locked.
//
//rsvet:deterministic
func (c *Core) feedLowWater() {
	if c.ret == nil {
		return
	}
	low := c.nextInstance + 1
	if len(c.activeIDs) > 0 {
		low = c.activeIDs[0]
	}
	c.ret.SetLowWater(low)
}

// Now reads the logical clock. Safe from any goroutine on the
// SeqClock; the TickClock is single-threaded.
func (c *Core) Now() int64 {
	if c.clock == TickClock {
		return c.ticks
	}
	return c.execSeq.Load()
}

// Tick advances the TickClock by one tick and samples the in-flight
// count for Result.AvgConcurrency.
func (c *Core) Tick() {
	c.ticks++
	c.inFlight += int64(len(c.Active))
}

// AdmitLimit returns the admission controller's current effective
// multiprogramming level. Safe from any goroutine.
func (c *Core) AdmitLimit() int { return c.shed.limit() }

// Committed returns the committed-instance count. Caller-synchronized
// (lifecycle discipline).
func (c *Core) Committed() int { return c.res.Committed }

// AppendActiveIDs appends the live instance IDs, ascending, to dst and
// returns the extended slice: a snapshot that later admissions and
// aborts leave as it is. Caller-synchronized.
func (c *Core) AppendActiveIDs(dst []int64) []int64 { return append(dst, c.activeIDs...) }

// deactivate drops a finished instance from the instance table.
// Lifecycle-locked.
func (c *Core) deactivate(id int64) {
	delete(c.Active, id)
	if i, ok := slices.BinarySearch(c.activeIDs, id); ok {
		c.activeIDs = slices.Delete(c.activeIDs, i, i+1)
	}
}

// Admit runs the Admit stage: a fresh instance enters the protocol,
// the WAL holds its begin record, and the admission is observed.
// Lifecycle-locked.
func (c *Core) Admit(pp *Pending) *Instance {
	clock := c.Now()
	c.nextInstance++
	st := c.instance(pp.Program.Len())
	st.ID = c.nextInstance
	st.Program = pp.Program
	st.Restarts = pp.Restarts
	st.StartClock = clock
	st.BlockedSince = -1
	c.Active[st.ID] = st
	c.activeIDs = append(c.activeIDs, st.ID)
	c.Cfg.Protocol.Begin(st.ID, st.Program)
	c.feedLowWater()
	c.logWAL(storage.WALRecord{Kind: storage.WALBegin, Instance: st.ID})
	c.rep.begin(st, clock)
	if h := c.Cfg.Hooks.Admit; h != nil {
		h(st)
	}
	return st
}

// Verdict is the ruling on an instance's turn, from Check or Step. The
// zero Verdict lets the turn go on: after Check, the instance issues
// its next operation; after Step, that operation was applied.
type Verdict struct {
	// Abort, when set, is the reason the driver aborts the instance
	// with: "deadline" or "injected" from Check; "protocol",
	// "recoverability" or "canceled" from Step.
	Abort string
	// Delay, when positive, is an injected grant delay: the instance
	// loses this turn (the tick driver skips it for the tick, the
	// concurrent driver sleeps for Delay).
	Delay time.Duration
	// Blocked reports that the protocol blocked the operation: the
	// instance waits and issues it again.
	Blocked bool
}

// Check runs the pre-issue checks on an instance about to take its
// turn, in order: the per-instance deadline (Config.Deadline), the
// txn.abort fault point and the sched.grant.delay fault point. It
// counts and traces what fired and returns the driver's Verdict.
// Called under the driver's shared lifecycle discipline.
func (c *Core) Check(st *Instance) Verdict {
	now := c.Now()
	if dl := c.Cfg.Deadline; dl > 0 && now-st.StartClock > dl {
		c.deadlineAborts.Add(1)
		c.rep.deadlines.Inc()
		return Verdict{Abort: "deadline"}
	}
	in := c.Cfg.Faults
	if in.Fire(fault.TxnForcedAbort) {
		c.injectedAborts.Add(1)
		c.rep.fault(fault.TxnForcedAbort, st.ID, now)
		return Verdict{Abort: "injected"}
	}
	if in.Fire(fault.SchedGrantDelay) {
		c.injectedDelays.Add(1)
		c.rep.fault(fault.SchedGrantDelay, st.ID, now)
		return Verdict{Delay: in.Latency(fault.SchedGrantDelay)}
	}
	return Verdict{}
}

// Step runs the rest of an instance's turn after Check and records its
// outcome: Issue submits the next operation to the protocol, Decide
// returns a Block as Blocked and a refusal as Abort "protocol". A
// canceled request is refused with Abort "canceled" without asking the
// protocol, so it enters no wait queue it would never leave. A grant
// that would close a dirty-data dependency cycle, which no commit
// order resolves, aborts with "recoverability"; any other is applied
// (Apply) and Step returns the zero Verdict.
//
// Stripe-lock contract: a concurrent caller holds the mutex of stripe
// shardIdx (Router.Shard of the operation's object) around Step, so
// admission to the protocol is mutually exclusive per stripe, the
// stripe's dirty stacks are stable and grants are recorded in
// same-object execution order. On Blocked it keeps the mutex until
// parked, so no wakeup is lost.
func (c *Core) Step(ctx context.Context, st *Instance, shardIdx int) Verdict {
	op := st.Program.Op(st.Next)
	if h := c.Cfg.Hooks.Issue; h != nil {
		h(st)
	}
	req := sched.OpRequest{Instance: st.ID, Program: st.Program, Seq: st.Next, Op: op, Ctx: ctx}
	canceled, dec := req.Canceled(), sched.Abort
	if !canceled {
		dec = c.Cfg.Protocol.Request(req)
	}
	if h := c.Cfg.Hooks.Decide; h != nil {
		h(st)
	}
	switch {
	case canceled:
		return Verdict{Abort: "canceled"}
	case dec == sched.Block:
		c.blocksTotal.Add(1)
		c.rep.block(st, op, c.Now())
		return Verdict{Blocked: true}
	case dec == sched.Abort:
		c.rep.abortDecision(st, op, c.Now())
		return Verdict{Abort: "protocol"}
	}
	if w, dirty := topDirty(c.dirty[shardIdx], op.Object); dirty && w != st.ID && c.depPath(w, st.ID) {
		c.recovAborts.Add(1)
		c.rep.recovAborts.Inc()
		return Verdict{Abort: "recoverability"}
	}
	c.apply(ctx, st, op, shardIdx)
	return Verdict{}
}

// apply runs the Apply stage for a granted, recoverable operation:
// dependency recording, the store access (context-aware, so injected
// stalls cut short on cancellation), dirty tracking, the WAL write
// record, the instance's event log and the grant's record.
func (c *Core) apply(ctx context.Context, st *Instance, op core.Op, shardIdx int) {
	c.opsExecuted.Add(1)
	dirty := c.dirty[shardIdx]
	if w, ok := topDirty(dirty, op.Object); ok && w != st.ID {
		c.addDep(st, w) // reads or overwrites dirty data
	}
	if op.Kind == core.ReadOp {
		st.Reads[op.Seq] = c.Cfg.Store.ReadCtx(ctx, op.Object).Value
	} else {
		v := c.Cfg.Semantics.WriteValue(st.Program, op.Seq, st.Reads)
		st.Undo.WriteLoggedCtx(ctx, c.Cfg.Store, op.Object, v)
		st.Writes[op.Object] = v
		dirty[op.Object] = append(dirty[op.Object], st.ID)
		c.logWAL(storage.WALRecord{Kind: storage.WALWrite, Instance: st.ID, Object: op.Object, Value: v})
	}
	order := c.execSeq.Add(1)
	st.events = append(st.events, Event{Instance: st.ID, Program: st.Program, Op: op, Order: order})
	st.Next++
	if st.Next == st.Program.Len() {
		st.Done = true
	}
	if h := c.Cfg.Hooks.Apply; h != nil {
		h(st)
	}
	c.rep.grant(st, op, order, c.Now())
}

// Publish runs the first half of the Commit stage for a finished
// instance, if its dirty-data dependencies have drained and the
// protocol agrees (a veto is counted as a commit wait and the driver
// retries). It commits the instance in the protocol, enqueues its
// commit record and releases everything the instance held in the
// engine, so waiters can proceed while the record is on its way to the
// device. The instance is not committed for its client until
// Acknowledge. Lifecycle-locked.
func (c *Core) Publish(st *Instance) bool {
	if len(st.DepsOn) > 0 || !c.Cfg.Protocol.CanCommit(st.ID) {
		c.res.CommitWaits++
		c.rep.commitWaits.Inc()
		return false
	}
	c.Cfg.Protocol.Commit(st.ID)
	st.commitSeq = c.execSeq.Load()
	st.ack = c.logWAL(storage.WALRecord{Kind: storage.WALCommit, Instance: st.ID})
	//rsvet:allow detlint -- order-insensitive: each object's dirty entry is removed independently
	for obj := range st.Writes {
		c.removeDirty(obj, st.ID)
	}
	//rsvet:allow detlint -- order-insensitive: commutative per-dependent map deletions
	for dep := range st.dependents {
		if d, ok := c.Active[dep]; ok {
			delete(d.DepsOn, st.ID)
		}
	}
	c.deactivate(st.ID)
	c.feedLowWater()
	if c.ret != nil {
		c.rep.retire(c.ret.RetireStats())
	}
	return true
}

// AwaitAck waits for the lane to acknowledge a published instance's
// commit record, parking a failure like any WAL error. It takes no
// lock: the concurrent driver calls it with the lifecycle lock
// released, so other instances publish meanwhile and one lane fsync
// covers all their commit records.
func (c *Core) AwaitAck(st *Instance) {
	if st.ack == nil {
		return
	}
	if err := <-st.ack; err != nil {
		c.parkWALErr(fmt.Errorf("txn: WAL append failed: %w", err))
	}
	st.ack = nil
}

// Acknowledge runs the second half of the Commit stage once AwaitAck
// has returned: the instance counts as committed, the degradation
// controllers and reporter observe it, the Result records it and the
// Commit hook fires — so in a run that completes, every hook observer
// sees a durable commit. A failed ack is the exception: its error is
// parked and fails the run, but the drivers still acknowledge the
// instance, so the stage log of a crashed serial run, which recordings
// pin, still ends with that instance's Commit hook.
// Lifecycle-locked.
func (c *Core) Acknowledge(st *Instance) {
	clock := c.Now()
	c.res.Committed++
	c.lv.noteCommit()
	prevLim := c.shed.limit()
	if lim, changed := c.shed.observe(true); changed {
		c.rep.shed(lim, c.Cfg.MPL, lim < prevLim, clock)
	}
	c.rep.commit(st, clock)
	c.latencies.Add(float64(clock - st.StartClock))
	c.res.Spans = append(c.res.Spans, Span{
		Instance: st.ID, Program: int(st.Program.ID),
		Start: st.StartClock, End: clock, CommitSeq: st.commitSeq,
	})
	c.res.Trace = append(c.res.Trace, st.events...)
	c.res.Programs = append(c.res.Programs, st.Program)
	if h := c.Cfg.Hooks.Commit; h != nil {
		h(st)
	}
	c.recycle(st)
}

// instance returns a reset instance whose event buffer holds n events:
// the most recently recycled one whose buffer is large enough, else the
// oldest one with a new buffer, else a new instance. Lifecycle-locked.
func (c *Core) instance(n int) *Instance {
	i := len(c.free) - 1
	for i > 0 && cap(c.free[i].events) < n {
		i--
	}
	if i < 0 {
		return &Instance{
			Reads:      make(map[int]storage.Value),
			DepsOn:     make(map[int64]bool),
			dependents: make(map[int64]bool),
			Writes:     make(map[string]storage.Value),
			events:     make([]Event, 0, n),
		}
	}
	st := c.free[i]
	c.free = slices.Delete(c.free, i, i+1)
	if cap(st.events) < n {
		st.events = make([]Event, 0, n)
	}
	return st
}

// recycle resets a committed instance to the zero Instance, keeping
// its maps' and buffers' storage, and puts it on the free list.
func (c *Core) recycle(st *Instance) {
	clear(st.Reads)
	clear(st.DepsOn)
	clear(st.dependents)
	clear(st.Writes)
	st.Undo.Discard()
	*st = Instance{Undo: st.Undo, Reads: st.Reads, DepsOn: st.DepsOn, dependents: st.dependents, Writes: st.Writes, events: st.events[:0]}
	c.free = append(c.free, st)
}

// AbortCascade runs the Abort stage: the instance and, transitively,
// every live instance that read or overwrote its uncommitted data are
// aborted together, all their writes rolled back in global reverse
// order. onVictim is called for each victim after its engine-side
// cleanup — the deterministic driver requeues the program with backoff
// there, the concurrent driver dooms co-victims; a non-nil error stops
// the cascade and fails the run. Lifecycle-locked.
func (c *Core) AbortCascade(id int64, reason string, onVictim func(*Instance) error) error {
	clock := c.Now()
	victims := map[int64]bool{}
	var collect func(v int64)
	collect = func(v int64) {
		st, ok := c.Active[v]
		if !ok || victims[v] {
			return
		}
		victims[v] = true
		for dep := range st.dependents {
			collect(dep)
		}
	}
	collect(id)
	if len(victims) == 0 {
		return nil
	}
	ordered := make([]int64, 0, len(victims))
	//rsvet:allow detlint -- order-insensitive: victims are collected then sorted before any effect
	for v := range victims {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	logs := make([]*storage.UndoLog, 0, len(ordered))
	for _, v := range ordered {
		logs = append(logs, &c.Active[v].Undo)
	}
	storage.RollbackSet(c.Cfg.Store, logs)
	for _, v := range ordered {
		st := c.Active[v]
		st.reason = reason
		c.Cfg.Protocol.Abort(v)
		c.logWAL(storage.WALRecord{Kind: storage.WALAbort, Instance: v})
		c.rep.txnAbort(st, reason, clock)
		//rsvet:allow detlint -- order-insensitive: each object's dirty entry is removed independently
		for obj := range st.Writes {
			c.removeDirty(obj, v)
		}
		//rsvet:allow detlint -- order-insensitive: commutative per-dependent map deletions
		for dep := range st.dependents {
			if d, ok := c.Active[dep]; ok {
				delete(d.DepsOn, v)
			}
		}
		//rsvet:allow detlint -- order-insensitive: commutative reverse-edge deletions
		for on := range st.DepsOn {
			if d, ok := c.Active[on]; ok {
				delete(d.dependents, v)
			}
		}
		c.deactivate(v)
		c.res.Aborts++
		prevLim := c.shed.limit()
		if lim, changed := c.shed.observe(false); changed {
			c.rep.shed(lim, c.Cfg.MPL, lim < prevLim, clock)
		}
		if level, escalated := c.lv.noteRestart(); escalated {
			c.rep.livelockEscalation(level, clock)
		}
		if h := c.Cfg.Hooks.Abort; h != nil {
			h(st)
		}
		if onVictim != nil {
			if err := onVictim(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// AbortAll runs the Recover stage: the run context was canceled, so
// every in-flight instance is aborted — effects rolled back, WAL abort
// records appended — leaving the store invariant-clean and the log
// recoverable exactly as after any other abort. cause names what
// canceled the run (for the trace). Returns the number of instances
// unwound. Lifecycle-locked.
func (c *Core) AbortAll(cause string) int {
	// The run-scoped Recover hook fires even when nothing is left in
	// flight (earlier cascades may have drained every instance): the
	// unwind still marks the run's end.
	if h := c.Cfg.Hooks.Recover; h != nil {
		h()
	}
	ids := c.AppendActiveIDs(nil)
	if len(ids) == 0 {
		if c.ret != nil {
			c.ret.FlushRetirement()
		}
		return 0
	}
	c.rep.cancel(cause, c.Now())
	n := 0
	for _, id := range ids {
		if _, ok := c.Active[id]; !ok {
			continue // already unwound by an earlier cascade
		}
		// onVictim never errors, so neither does the cascade.
		_ = c.AbortCascade(id, "canceled", func(*Instance) error {
			n++
			c.cancelAborts.Add(1)
			c.rep.cancelAborts.Inc()
			return nil
		})
	}
	// The unwind leaves no retirement-pending state behind: queued
	// vertices and the overdue rebase drain now, while the Recover
	// stage still holds the lifecycle lock.
	if c.ret != nil {
		c.ret.FlushRetirement()
	}
	return n
}

// Finalize folds the operation-path counters, tick statistics (zero on
// the SeqClock), degradation state and latency stats into the Result,
// restores global execution order on the trace (commits append whole
// per-instance event blocks) and returns it.
func (c *Core) Finalize() *Result {
	c.res.Ticks = int(c.ticks)
	if c.ticks > 0 {
		c.res.AvgConcurrency = float64(c.inFlight) / float64(c.ticks)
	}
	c.res.OpsExecuted = int(c.opsExecuted.Load())
	c.res.Blocks = int(c.blocksTotal.Load())
	c.res.InjectedAborts = int(c.injectedAborts.Load())
	c.res.InjectedDelays = int(c.injectedDelays.Load())
	c.res.DeadlineAborts = int(c.deadlineAborts.Load())
	c.res.RecoverabilityAborts = int(c.recovAborts.Load())
	c.res.CancelAborts = int(c.cancelAborts.Load())
	c.res.LoadSheds = c.shed.sheds
	c.res.MinEffectiveMPL = c.shed.minEff
	c.res.LivelockEscalations = c.lv.escalations
	c.res.LatencyMean = c.latencies.Mean()
	c.res.LatencyP95 = c.latencies.Percentile(95)
	if c.ret != nil {
		c.ret.FlushRetirement()
		c.res.Retire = c.ret.RetireStats()
		c.rep.retire(c.res.Retire)
	}
	c.sortByExecOrder(c.res.Trace)
	return &c.res
}

// sortByExecOrder sorts the events by Order in place. Orders are
// distinct draws from execSeq, so one pass over the order space ranks
// the events (the holes are operations of aborted instances) and the
// permutation is applied cycle by cycle: no comparisons and no second
// trace.
func (c *Core) sortByExecOrder(trace []Event) {
	src := make([]int32, c.execSeq.Load()+1) // order -> 1 + index in trace
	for i := range trace {
		src[trace[i].Order] = int32(i) + 1
	}
	n := 0 // compacted: the event that belongs at k is trace[src[k]]
	for _, i := range src {
		if i > 0 {
			src[n] = i - 1
			n++
		}
	}
	for k := range trace {
		if int(src[k]) == k {
			continue
		}
		first, j := trace[k], k
		for int(src[j]) != k {
			next := int(src[j])
			trace[j], src[j] = trace[next], int32(j)
			j = next
		}
		trace[j], src[j] = first, int32(j)
	}
}

// logWAL appends a record, parking errors in walErr (surfaced by
// WALErr at the drivers' fold points) so the hot path never needs a
// lifecycle lock. Commit records go through AppendAck and the lane's
// ack channel is returned for AwaitAck; everything else is enqueued
// async. The sink serializes internally.
func (c *Core) logWAL(rec storage.WALRecord) <-chan error {
	if c.Cfg.WAL == nil {
		return nil
	}
	var ack <-chan error
	var err error
	if rec.Kind == storage.WALCommit {
		ack, err = c.Cfg.WAL.AppendAck(rec)
	} else {
		err = c.Cfg.WAL.Append(rec)
	}
	if err != nil {
		c.parkWALErr(fmt.Errorf("txn: WAL append failed: %w", err))
	}
	return ack
}

// parkWALErr keeps the first WAL error for the drivers' fold points.
func (c *Core) parkWALErr(err error) { c.walErr.CompareAndSwap(nil, &err) }

// WALErr returns the parked WAL append error, if any, folding in the
// sink's own latched error (async appends can fail after the call
// that enqueued them returned). Safe from any goroutine, and lock-free
// while nothing has failed: the concurrent driver asks before every
// operation.
func (c *Core) WALErr() error {
	if err := c.walErr.Load(); err != nil {
		return *err
	}
	if c.Cfg.WAL != nil {
		if werr := c.Cfg.WAL.Err(); werr != nil {
			return fmt.Errorf("txn: WAL append failed: %w", werr)
		}
	}
	return nil
}

// FlushWAL drains the sink's group-commit queues (one final fsync per
// lane) and surfaces any append error; drivers call it once at the end
// of a run so async appends are durable before the result is final.
func (c *Core) FlushWAL() error {
	if c.Cfg.WAL != nil {
		if err := c.Cfg.WAL.Sync(); err != nil {
			c.parkWALErr(fmt.Errorf("txn: WAL flush failed: %w", err))
		}
	}
	return c.WALErr()
}

// Restart does the restart accounting for an aborted instance's
// program: it charges one restart and returns the program's restart
// count and the livelock escalation level to back off by, or an error
// once the program has exceeded Config.MaxRestarts. Lifecycle-locked.
func (c *Core) Restart(st *Instance) (restarts, level int, err error) {
	st.Restarts++
	if st.Restarts > c.Cfg.MaxRestarts {
		return 0, 0, fmt.Errorf("txn: program T%d exceeded %d restarts (reason %s)", st.Program.ID, c.Cfg.MaxRestarts, st.reason)
	}
	c.res.Restarts++
	c.rep.restarts.Inc()
	return st.Restarts, c.lv.level, nil
}

// ObserveWedge records the watchdog declaring the run wedged.
func (c *Core) ObserveWedge(we *WedgeError) { c.rep.wedge(we) }

// JitterSleep blocks the caller for a seeded random backoff scaled by
// its restart count and the livelock escalation level; level 0 returns
// immediately.
func (c *Core) JitterSleep(restarts, level int) { c.jit.sleep(restarts, level) }

// BackoffTicks draws the tick driver's restart backoff in ticks from
// the same seeded stream, scaled by the restart count and the livelock
// escalation level.
func (c *Core) BackoffTicks(restarts, level int) int { return c.jit.ticks(restarts, level) }

// addDep records a dirty-read dependency from the operation path; on
// is live (a dirty writer), and the Active map is stable under the
// caller's driver discipline.
func (c *Core) addDep(st *Instance, on int64) {
	c.depMu.Lock()
	defer c.depMu.Unlock()
	st.DepsOn[on] = true
	c.Active[on].dependents[st.ID] = true
}

// depPath reports whether the dependency graph has a path from -> to.
// Takes depMu; the Active map itself is stable under the caller's
// driver discipline.
func (c *Core) depPath(from, to int64) bool {
	c.depMu.Lock()
	defer c.depMu.Unlock()
	seen := map[int64]bool{}
	stack := []int64{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		if inst, ok := c.Active[v]; ok {
			for d := range inst.DepsOn {
				stack = append(stack, d)
			}
		}
	}
	return false
}

// topDirty returns the innermost uncommitted writer of object in the
// given shard's dirty table.
func topDirty(dirty map[string][]int64, object string) (int64, bool) {
	stack := dirty[object]
	if len(stack) == 0 {
		return 0, false
	}
	return stack[len(stack)-1], true
}

// removeDirty drops every stack entry of the instance for the object.
// Lifecycle-locked (commit and cascade paths only).
func (c *Core) removeDirty(object string, id int64) {
	dirty := c.dirty[c.Router.Shard(object)]
	stack := dirty[object]
	out := stack[:0]
	for _, w := range stack {
		if w != id {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		delete(dirty, object)
	} else {
		dirty[object] = out
	}
}
