package txn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relser/internal/engine"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/shard"
)

// ConcurrentRunner executes transaction programs on real goroutines —
// one worker per in-flight instance, bounded by the multiprogramming
// level — driving the same engine pipeline stages as the deterministic
// Runner.
//
// The hot path is striped: the key space is partitioned over
// Config.Shards driver stripes (power of two, FNV-routed, shared with
// the store's stripes and the protocol's lock tables). Each stripe is a
// wait queue; the engine's dirty-writer stacks are partitioned the same
// way, so holding a stripe's mutex stabilizes exactly the dirty state
// the engine's Step touches. Every operation takes one path: stripe
// lock, the engine's Step, unlock (or park, on Blocked). Holding the
// stripe across the whole Step keeps same-object admission and
// execution in the same order, which the protocols' correctness
// arguments require. Shard-safe protocols (sched.ShardSafe — NoCC,
// S2PL, TO) run on Config.Shards stripes, so requests on different
// stripes proceed in parallel. All other protocols are sequential
// state machines and run on one stripe, which serializes every Step
// and keeps tracing sound for replay certification (a total order on
// admissions and their grant events).
//
// Lifecycle transitions — begin, commit, abort cascades, stall
// victimization — take the state lock exclusively, stopping the world;
// the operation path holds it shared. That makes every Begin /
// CanCommit / Commit / Abort protocol call globally serialized (the
// ShardSafe contract) and lets cascades roll back effects without
// interference. A commit takes it twice: once to publish (protocol
// commit, commit record enqueued, engine state released, waiters woken)
// and once to acknowledge (counters, result, Commit hook). The wait for
// the commit record's ack in between holds no lock, so the log's group
// commit sees the records of every worker that published meanwhile.
//
// Waiting and waking are targeted to avoid a thundering herd: a worker
// the protocol blocks parks on its object's stripe, a finished worker
// whose commit is vetoed parks on the commit queue. Commits broadcast
// the commit queue and only the stripes their program touched (an S2PL
// waiter always waits on an object in its holder's program, so the
// holder's commit reaches it). A grant wakes its own stripe for a
// sequential protocol (altruistic donation can unblock a waiter) and
// nobody for a shard-safe one (acquiring a lock or passing a timestamp
// check cannot unblock a waiter). Aborts and cascades are rare and
// broadcast everything.
//
// Stall detection is symmetric flag-and-check on two seq-cst atomics:
// a worker about to park that would leave every active instance's
// worker asleep (sleepers >= activeCount) instead victimizes itself,
// and a committer that leaves the remaining workers all asleep floods
// every queue so one of them detects the stall; the last transition
// into an all-asleep state is always observed by its own check.
//
// Cancellation rides one mechanism: RunContext derives a cancel-cause
// context; the stall watchdog escalates by canceling it (*WedgeError
// cause), external deadlines cancel it from outside, and a watcher
// goroutine floods every queue until shutdown so parked workers unwind.
// Drained in-flight instances are aborted through the engine's Recover
// stage, leaving the store invariant-clean and the WAL recoverable.
//
// Lock order: state.RLock -> stripe.mu -> depMu;
// state.Lock -> {stripe.mu, commits.mu}. The leaf mutexes (depMu lives
// in the engine; stripe.mu and commits.mu here) are never nested with
// one another. The ack wait, between Publish and Acknowledge, holds no
// lock.
//
// Group commit counts its cohort: every worker holds the log
// (storage.WALSink.Hold) while it runs towards its next commit record,
// and a log lane fsyncs once no worker is running, so one fsync covers
// every commit published meanwhile. Publishing a commit record gives
// the hold up and its ack returns it. A worker also gives its hold up
// wherever it waits on another worker — parked on a stripe or the
// commit queue (park), in the admission-shedding sleep (runProgram),
// in the restart back-off's sleep (noteRestart), idle on an empty work
// queue (next) — and for good when it exits. A lane that counted such a
// worker would hold back the acks the other workers wait for, until
// the waiting worker ran again, or forever once it has exited. A
// sleeper gets its hold back from the broadcast that wakes it
// (waitQueue.wakeLocked), not once it runs, and a worker publishing a
// commit holds once more until the sleepers its commit wakes have
// theirs: otherwise the lane drains between the publish and their
// wake-up, and every commit that waited on another commit waits a
// second fsync.
//
// Concurrent runs are not reproducible (goroutine interleaving is the
// scheduler's); tests assert outcomes — everything commits, committed
// schedules verify, invariants hold — rather than traces.
type ConcurrentRunner struct {
	eng *engine.Core
	// wakeOnGrant is set for protocols that are not shard-safe: a grant
	// can change their wait state, so it wakes its stripe.
	wakeOnGrant bool

	// state is the world lock: the operation path holds it shared,
	// lifecycle transitions hold it exclusively. Engine lifecycle calls
	// (Admit, Publish, Acknowledge, AbortCascade, AbortAll) and runErr
	// are guarded by the exclusive lock.
	state sync.RWMutex

	stripes []*waitQueue
	// commits is where finished instances wait out a commit veto
	// (dirty-data dependencies or the protocol's CanCommit).
	commits *waitQueue

	activeCount atomic.Int64 // live instances, readable without the state lock
	sleepers    atomic.Int64 // workers parked on any queue (or committed to parking)

	// progress is bumped by every executed operation, commit, abort and
	// restart; the watchdog declares a wedge when it stops moving.
	progress atomic.Int64

	// Contention instruments (nil, hence no-ops, without Cfg.Metrics):
	// wakeups and broadcasts, split into targeted stripe, commit-queue
	// and flood broadcasts.
	wakeups, bcastShard, bcastGlobal, bcastFlood *metrics.Counter

	runErr error // state
}

// waitQueue is one place a worker parks: a driver stripe or the commit
// queue. mu guards waiters and, for a stripe on the operation path, the
// engine's same-indexed dirty stacks.
type waitQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters int
	woken   int    // waiters a broadcast woke that have not run yet
	hold    func() // ConcurrentRunner.hold

	blocks   *metrics.Counter   // Block decisions on this stripe (nil without metrics)
	waitHist *metrics.Histogram // wall-clock wait seconds (nil without metrics)
}

func newWaitQueue(hold func()) *waitQueue {
	q := &waitQueue{hold: hold}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// broadcast wakes q's sleepers, if any, counting the broadcast on c.
func (q *waitQueue) broadcast(c *metrics.Counter) {
	q.mu.Lock()
	q.wakeLocked(c)
	q.mu.Unlock()
}

// wakeLocked is broadcast with q.mu held. Every sleeper it wakes gets
// its hold on the log back here, before it runs (see park).
func (q *waitQueue) wakeLocked(c *metrics.Counter) {
	if q.waiters == 0 {
		return
	}
	for ; q.woken < q.waiters; q.woken++ {
		q.hold()
	}
	c.Inc()
	q.cond.Broadcast()
}

// NewConcurrent validates the configuration (same rules as New) and
// prepares a concurrent runner with cfg.Shards driver stripes, or one
// stripe for a protocol that is not shard-safe.
func NewConcurrent(cfg Config) (*ConcurrentRunner, error) {
	shardSafe := sched.IsShardSafe(cfg.Protocol)
	if !shardSafe {
		cfg.Shards = 1
	}
	eng, err := engine.NewCore(cfg, engine.SeqClock)
	if err != nil {
		return nil, err
	}
	r := &ConcurrentRunner{eng: eng, wakeOnGrant: !shardSafe}
	r.commits = newWaitQueue(r.hold)
	reg := eng.Cfg.Metrics
	if reg != nil {
		r.wakeups = reg.Counter("txn.wakeups")
		r.bcastShard = reg.Counter("txn.cond.broadcast_shard")
		r.bcastGlobal = reg.Counter("txn.cond.broadcast_global")
		r.bcastFlood = reg.Counter("txn.cond.broadcast_flood")
	}
	r.stripes = make([]*waitQueue, eng.Router.Shards())
	for i := range r.stripes {
		q := newWaitQueue(r.hold)
		if reg != nil {
			q.blocks = reg.Counter(fmt.Sprintf("txn.shard%02d.blocks", i))
			q.waitHist = reg.Histogram(fmt.Sprintf("txn.shard%02d.wait_seconds", i))
		}
		r.stripes[i] = q
	}
	return r, nil
}

// Run executes all programs to commit, running up to MPL transaction
// workers concurrently, and returns the aggregated result.
func (r *ConcurrentRunner) Run() (*Result, error) {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: RunContext is the context-aware form
	return r.RunContext(context.Background())
}

// RunContext is Run under a context. Cancellation (external deadline
// or the watchdog's wedge verdict, which cancels with a *WedgeError
// cause) stops the workers, unwinds in-flight instances through the
// engine's Recover stage, and fails the run with the cause.
func (r *ConcurrentRunner) RunContext(parent context.Context) (*Result, error) {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	if wd := r.eng.Cfg.Watchdog; wd >= 0 {
		if wd == 0 {
			wd = engine.DefaultWatchdog
		}
		stop := r.startWatchdog(wd, cancel)
		defer stop()
	}
	// work is never closed (closing would race with a concurrent
	// requeue); shutdown is signaled on done instead. Each program has
	// at most one Pending in flight, so requeues never block.
	work := make(chan *engine.Pending, len(r.eng.Cfg.Programs))
	for _, p := range r.eng.Cfg.Programs {
		work <- &engine.Pending{Program: p}
	}
	done := make(chan struct{})
	var closeOnce sync.Once
	shutdown := func() { closeOnce.Do(func() { close(done) }) }
	// Cancellation watcher: parked workers cannot see ctx, so flood
	// every queue repeatedly until shutdown — each woken worker re-checks
	// pendingErr and unwinds. Injected wedges are released too.
	go func() {
		select {
		case <-done:
			return
		case <-ctx.Done():
		}
		r.eng.Cfg.Faults.Release()
		for {
			r.wakeAll()
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	var wg sync.WaitGroup
	workers := r.eng.Cfg.MPL
	if workers > len(r.eng.Cfg.Programs) {
		workers = len(r.eng.Cfg.Programs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		r.hold()
		go func() {
			defer wg.Done()
			defer r.release()
			for {
				pp := r.next(work, done)
				if pp == nil {
					return
				}
				requeue, err := r.runProgram(ctx, pp)
				if err != nil {
					r.fail(err)
					shutdown()
					return
				}
				if requeue {
					select {
					case work <- pp:
					case <-done:
						return
					}
					continue
				}
				r.state.RLock()
				finished := r.eng.Committed() == len(r.eng.Cfg.Programs) || r.runErr != nil
				r.state.RUnlock()
				if finished {
					shutdown()
					return
				}
			}
		}()
	}
	wg.Wait()
	shutdown() // release the cancellation watcher
	// Final durability barrier before the verdict: drain the sink's
	// group-commit queues so async append errors are latched where
	// foldErrLocked can see them. Deliberately outside the state lock —
	// the flush parks on the log's committer.
	r.eng.FlushWAL() //nolint:errcheck // latched error folds below
	r.state.Lock()
	defer r.state.Unlock()
	r.foldErrLocked(ctx)
	if r.runErr != nil {
		if ctx.Err() != nil {
			// Recover stage: roll back whatever is still in flight so the
			// store is invariant-clean and the WAL replays to committed
			// effects only. Non-cancellation failures (WAL append errors,
			// restart exhaustion) keep the historical behavior — aborted
			// instances' effects are already absent from recovery.
			r.eng.AbortAll(context.Cause(ctx).Error())
		}
		return nil, r.runErr
	}
	if r.eng.Committed() != len(r.eng.Cfg.Programs) {
		return nil, fmt.Errorf("txn: concurrent run finished with %d of %d programs committed", r.eng.Committed(), len(r.eng.Cfg.Programs))
	}
	return r.eng.Finalize(), nil
}

// next takes the worker's next program, or nil once the run is done. A
// worker that finds the queue empty waits for another worker to requeue
// an aborted program, so it gives up its hold meanwhile.
func (r *ConcurrentRunner) next(work <-chan *engine.Pending, done <-chan struct{}) *engine.Pending {
	select {
	case <-done:
		return nil
	case pp := <-work:
		return pp
	default:
	}
	r.release()
	defer r.hold()
	select {
	case <-done:
		return nil
	case pp := <-work:
		return pp
	}
}

// hold and release move the calling worker in and out of the log's
// count of running producers; see ConcurrentRunner.
func (r *ConcurrentRunner) hold() {
	if wal := r.eng.Cfg.WAL; wal != nil {
		wal.Hold()
	}
}

func (r *ConcurrentRunner) release() {
	if wal := r.eng.Cfg.WAL; wal != nil {
		wal.Release()
	}
}

// runCanceled converts a canceled context into the run error: the
// cancel cause itself when one was supplied (the watchdog's
// *WedgeError), or a wrapped ctx.Err() for plain cancellations and
// deadlines.
func runCanceled(ctx context.Context) error {
	cause := context.Cause(ctx)
	if cause == ctx.Err() {
		return fmt.Errorf("txn: run canceled: %w", cause)
	}
	return cause
}

// foldErrLocked promotes a parked WAL append error or the context's
// cancellation into runErr. Requires the exclusive state lock.
func (r *ConcurrentRunner) foldErrLocked(ctx context.Context) {
	if r.runErr != nil {
		return
	}
	if err := r.eng.WALErr(); err != nil {
		r.runErr = err
		return
	}
	if ctx.Err() != nil {
		r.runErr = runCanceled(ctx)
	}
}

// pendingErr reports a failure visible from the shared state lock:
// runErr, a cancellation (external or watchdog), or a parked WAL error
// not yet folded. Every operation asks, so it takes no lock: it polls
// ctx.Done (ctx.Err locks the context) and WALErr is atomic until a
// failure.
func (r *ConcurrentRunner) pendingErr(ctx context.Context) error {
	if r.runErr != nil {
		return r.runErr
	}
	select {
	case <-ctx.Done():
		return runCanceled(ctx)
	default:
	}
	return r.eng.WALErr()
}

func (r *ConcurrentRunner) fail(err error) {
	r.state.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.state.Unlock()
	r.wakeAll()
}

// runProgram executes one incarnation of a program. It returns
// requeue=true when the instance aborted and the program must retry.
func (r *ConcurrentRunner) runProgram(ctx context.Context, pp *engine.Pending) (bool, error) {
	r.state.Lock()
	for {
		r.foldErrLocked(ctx)
		if err := r.runErr; err != nil {
			r.state.Unlock()
			return false, err
		}
		// Admission control: when the shedder has degraded the effective
		// MPL below the worker count, surplus workers idle here until
		// the storm clears (the limit is never below 1).
		if r.activeCount.Load() < int64(r.eng.AdmitLimit()) {
			break
		}
		r.state.Unlock()
		r.release()
		time.Sleep(100 * time.Microsecond)
		r.hold()
		r.state.Lock()
	}
	st := r.eng.Admit(pp)
	r.activeCount.Add(1)
	r.state.Unlock()

	for {
		r.state.RLock()
		if err := r.pendingErr(ctx); err != nil {
			r.state.RUnlock()
			return false, err // run failed or was canceled
		}
		if st.Doomed.Load() {
			// A cascade initiated by another worker aborted us; the
			// initiator already rolled back our effects.
			st.Doomed.Store(false)
			r.state.RUnlock()
			return r.noteRestart(pp, st)
		}
		if st.Done {
			r.state.RUnlock()
			committed, aborted, err := r.tryFinish(ctx, st)
			if err != nil {
				return false, err
			}
			if committed {
				return false, nil
			}
			if aborted {
				return r.noteRestart(pp, st)
			}
			continue
		}
		v := r.eng.Check(st)
		if v.Abort == "" && v.Delay == 0 {
			shardIdx := r.eng.Router.Shard(st.Program.Op(st.Next).Object)
			sh := r.stripes[shardIdx]
			sh.mu.Lock()
			if v = r.eng.Step(ctx, st, shardIdx); v.Blocked {
				sh.blocks.Inc()
				if r.park(sh, r.state.RUnlock) {
					continue // woken: issue the same operation again
				}
				// Parking would leave every active worker asleep (a stall
				// the protocol cannot see): become the victim.
				v.Abort = "stall"
			} else {
				if v.Abort == "" {
					r.appliedLocked(ctx, sh)
				}
				sh.mu.Unlock()
			}
		}
		r.state.RUnlock()
		switch {
		case v.Abort != "":
			r.victimize(st, v.Abort)
			return r.noteRestart(pp, st)
		case v.Delay > 0:
			// The scheduler "loses" this worker's turn for a beat; a
			// canceled run stops paying for the injected latency.
			fault.SleepCtx(ctx, v.Delay)
		}
	}
}

// appliedLocked follows a Step that applied its operation, with the
// shared state lock and sh.mu (the operation's stripe) still held: it
// consults the shard.stall and shard.wedge fault points once, counts
// the progress and, for a protocol that is not shard-safe, wakes the
// stripe (altruistic donation can unblock a waiter).
//
//rsvet:locks sh.mu
func (r *ConcurrentRunner) appliedLocked(ctx context.Context, sh *waitQueue) {
	if in := r.eng.Cfg.Faults; in.Active(fault.ShardStall) || in.Active(fault.ShardWedge) {
		// Both fire while holding the stripe's mutex — a stalled or
		// wedged worker realistically blocks its same-stripe neighbors. A
		// wedge parks until the injector is released or the run context
		// is canceled; the watchdog does both.
		//rsvet:allow stripelock -- stall must block same-shard neighbors to be realistic
		if in.Fire(fault.ShardStall) {
			fault.SleepCtx(ctx, in.Latency(fault.ShardStall))
		}
		//rsvet:allow stripelock -- wedge parks under sh.mu so the watchdog has something to detect
		if in.Fire(fault.ShardWedge) {
			//rsvet:allow stripelock -- the wedged worker parks under sh.mu by design
			in.WedgeCtx(ctx)
		}
	}
	r.progress.Add(1)
	if r.wakeOnGrant {
		sh.wakeLocked(r.bcastShard)
	}
}

// tryFinish attempts to commit a finished instance: it publishes under
// the exclusive state lock, wakes whoever the commit unblocks, waits for
// the commit record's ack with no lock held and re-locks to acknowledge.
// If dependencies or the protocol veto, the worker parks on the commit
// queue until a commit or abort changes that state.
func (r *ConcurrentRunner) tryFinish(ctx context.Context, st *engine.Instance) (committed, aborted bool, err error) {
	r.state.Lock()
	r.foldErrLocked(ctx)
	if r.runErr != nil {
		err = r.runErr
		r.state.Unlock()
		return false, false, err
	}
	if st.Doomed.Load() {
		st.Doomed.Store(false)
		r.state.Unlock()
		return false, true, nil
	}
	// Publishing gives this worker's hold up in AppendAck, and the
	// sleepers the commit wakes get theirs back only in
	// wakeAfterCommitLocked: hold once more meanwhile, or the lane could
	// drain between the two and leave them to the next fsync.
	r.hold()
	if r.eng.Publish(st) {
		r.activeCount.Add(-1)
		r.progress.Add(1)
		r.wakeAfterCommitLocked(st)
		r.state.Unlock()
		r.release()
		r.eng.AwaitAck(st)
		r.state.Lock()
		r.eng.Acknowledge(st)
		r.state.Unlock()
		return true, false, nil
	}
	r.release()
	r.commits.mu.Lock()
	if !r.park(r.commits, r.state.Unlock) { // everyone else already waits: break the stall here
		r.abortCascadeLocked(st, "stall")
		r.state.Unlock()
		r.wakeAll()
		return false, true, nil
	}
	return false, false, nil
}

// park sleeps on q until a broadcast wakes it, with its hold on the log
// given up; the broadcast hands it back. Called with q.mu and a state
// lock held; unlock drops that state lock once the worker is
// registered. On true the worker slept and was woken, and both locks
// are released. On false parking would have left every active worker
// asleep: q.mu is released, the state lock is still held and the
// caller must victimize. No wakeup can be lost: waiters is registered
// and q.mu pins the cond until Wait is entered.
//
//rsvet:locks q.mu
func (r *ConcurrentRunner) park(q *waitQueue, unlock func()) bool {
	if s := r.sleepers.Add(1); s >= r.activeCount.Load() {
		r.sleepers.Add(-1)
		q.mu.Unlock()
		return false
	}
	q.waiters++
	start := time.Now()
	unlock()
	r.release()
	q.cond.Wait()
	q.waiters--
	q.woken--
	r.sleepers.Add(-1)
	q.waitHist.Observe(time.Since(start).Seconds())
	q.mu.Unlock()
	r.wakeups.Inc()
	return true
}

// wakeAll broadcasts every queue (all stripes plus the commit queue).
// Used for rare events — aborts, cascades, run failure, cancellation
// floods — where targeting is not worth the complexity.
func (r *ConcurrentRunner) wakeAll() {
	for _, sh := range r.stripes {
		sh.broadcast(nil)
	}
	r.commits.broadcast(nil)
}

// wakeAfterCommitLocked wakes exactly the sleepers a commit can
// unblock: the stripes of the committed program's objects and the
// commit queue. Safety net: if the remaining active workers are all
// asleep after the targeted wakeups were chosen, flood everything so
// one of them runs the stall check. Requires the exclusive state lock.
func (r *ConcurrentRunner) wakeAfterCommitLocked(st *engine.Instance) {
	var woken [shard.MaxShards]bool
	for i := 0; i < st.Program.Len(); i++ {
		s := r.eng.Router.Shard(st.Program.Op(i).Object)
		if !woken[s] {
			woken[s] = true
			r.stripes[s].broadcast(r.bcastShard)
		}
	}
	r.commits.broadcast(r.bcastGlobal)
	if ac := r.activeCount.Load(); ac > 0 && r.sleepers.Load() >= ac {
		r.bcastFlood.Inc()
		r.wakeAll()
	}
}

// victimize aborts st's cascade under the exclusive state lock and
// wakes all sleepers. Handles the race where another worker's cascade
// doomed st between the caller releasing the shared lock and this
// acquiring the exclusive one.
func (r *ConcurrentRunner) victimize(st *engine.Instance, reason string) {
	r.state.Lock()
	if st.Doomed.Load() {
		// Someone else already aborted us (and woke everyone).
		st.Doomed.Store(false)
		r.state.Unlock()
		return
	}
	r.abortCascadeLocked(st, reason)
	r.state.Unlock()
	r.wakeAll()
}

// abortCascadeLocked runs the engine's Abort stage for st's cascade;
// co-victims running on other goroutines are marked doomed and clean
// themselves up on next wake. Requires the exclusive state lock; the
// caller broadcasts afterwards.
func (r *ConcurrentRunner) abortCascadeLocked(st *engine.Instance, reason string) {
	// onVictim never errors, so neither does the cascade.
	_ = r.eng.AbortCascade(st.ID, reason, func(v *engine.Instance) error {
		r.activeCount.Add(-1)
		r.progress.Add(1)
		if v.ID != st.ID {
			v.Doomed.Store(true)
		}
		return nil
	})
}

// noteRestart runs the engine's restart accounting after an abort and
// tells the worker loop to requeue the program.
func (r *ConcurrentRunner) noteRestart(pp *engine.Pending, st *engine.Instance) (bool, error) {
	r.state.Lock()
	restarts, level, err := r.eng.Restart(st)
	if err != nil {
		if r.runErr == nil {
			r.runErr = err
		}
		r.state.Unlock()
		return false, err
	}
	pp.Restarts = restarts
	r.progress.Add(1)
	r.state.Unlock()
	// Yield before the retry: a single-CPU scheduler can otherwise
	// livelock an abort, with the victim's worker re-acquiring the locks
	// its abort just freed before the woken waiters ever run. Once the
	// livelock detector has escalated, yielding alone does not spread
	// contenders enough: add capped, jittered wall-clock backoff from
	// the dedicated seeded stream. Only that sleep gives the hold on the
	// log up: a worker that merely yields waits on no one, and its next
	// program joins the current cohort.
	if level > 0 {
		r.release()
		defer r.hold()
	}
	r.eng.JitterSleep(pp.Restarts, level)
	runtime.Gosched()
	return true, nil
}

// startWatchdog launches the stall watchdog and returns its stop
// function. The watchdog polls a progress counter (bumped on every
// executed operation, commit, abort and restart); if it does not move
// for the configured interval the run is declared wedged and the
// watchdog escalates through the run's cancellation mechanism: it
// cancels the context with the *WedgeError as the cause, which
// surfaces on every worker's next pendingErr check and triggers the
// cancellation watcher's floods, then releases injected shard wedges.
// The watchdog never takes the state lock — a wedged worker may hold
// it transitively — so its diagnosis uses only atomics and TryLock
// probes on the stripe mutexes.
func (r *ConcurrentRunner) startWatchdog(limit time.Duration, cancel context.CancelCauseFunc) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		poll := limit / 8
		if poll < time.Millisecond {
			poll = time.Millisecond
		}
		last := r.progress.Load()
		lastMove := time.Now()
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			if cur := r.progress.Load(); cur != last {
				last, lastMove = cur, time.Now()
				continue
			}
			if time.Since(lastMove) < limit {
				continue
			}
			we := &WedgeError{
				After:    limit,
				Active:   r.activeCount.Load(),
				Sleepers: r.sleepers.Load(),
				Suspects: r.suspectShards(),
			}
			r.eng.ObserveWedge(we)
			// Cancel before releasing: a worker let out of an injected
			// wedge must find the context already canceled, or a
			// descheduled watchdog lets the run finish as if nothing
			// had wedged.
			cancel(we)
			r.eng.Cfg.Faults.Release()
			return
		}
	}()
	return func() { close(stop); <-done }
}

// suspectShards probes each driver stripe mutex without blocking and
// reports the ones that are held — their holders are the wedge
// suspects.
func (r *ConcurrentRunner) suspectShards() []int {
	var out []int
	for i, sh := range r.stripes {
		if sh.mu.TryLock() {
			sh.mu.Unlock()
		} else {
			out = append(out, i)
		}
	}
	return out
}
