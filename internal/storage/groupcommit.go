package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/shard"
	"relser/internal/trace"
)

// WALSink is the durability interface the engine logs through.
// ShardedWAL is the one log behind it; decorators (the benchmark
// ladder's timed sink) wrap it.
type WALSink interface {
	// Append enqueues one record without waiting for durability.
	Append(rec WALRecord) error
	// AppendAck enqueues one record and returns the channel its lane
	// acknowledges it on: nil once the record is durable, the failure
	// otherwise. The engine's publish stage enqueues a commit record
	// under the lifecycle lock and its acknowledge stage receives the
	// ack with no lock held, so one lane fsync can cover the commit
	// records of many transactions. While registered producers run
	// (Hold), the caller is taken to be one of them: it moves to
	// waiting, and the lane moves it back to running just before the
	// ack is sent. A lane drains once no registered producer is
	// running, so one fsync covers the commit records of every producer
	// that published meanwhile. The channel may be non-nil even when
	// the error is (an injected crash on this very record).
	AppendAck(rec WALRecord) (<-chan error, error)
	// Hold registers one producer running towards its next commit
	// record, or re-registers one that waited. Release moves one to
	// waiting: a producer releases its hold wherever it waits on
	// another producer, and when it stops. Callers that never Hold
	// leave the count at zero, and for them every AppendAck drains at
	// once.
	Hold()
	Release()
	// Sync blocks until everything appended before the call is durable
	// (or failed) and returns the first latched error.
	Sync() error
	// Err returns the latched crash/IO error without waiting.
	Err() error
	SetTracer(tr *trace.Tracer)
	SetInjector(in *fault.Injector)
}

var errWALClosed = errors.New("storage: append on closed WAL")

// SegmentedOptions tunes a per-shard segmented WAL.
type SegmentedOptions struct {
	// Shards is the number of durability lanes (normalized to a power
	// of two in [1, shard.MaxShards], like every other shard count).
	Shards int
	// SegmentBytes rotates a lane's segment once its logical size
	// (header + frames) would exceed it. Default 1 MiB.
	SegmentBytes int64
	// QueueDepth bounds each lane's pending-append queue; producers
	// block when the committer falls this far behind. Default 1024.
	QueueDepth int
}

func (o SegmentedOptions) withDefaults() SegmentedOptions {
	o.Shards = shard.Normalize(o.Shards)
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// walFrame is one enqueued unit of work for a lane's committer. Fault
// decisions are made at enqueue time — under the lane mutex, in append
// order — so the injector's deterministic schedule is independent of
// committer timing; the committer only executes the instructions.
type walFrame struct {
	bytes   []byte
	done    chan error // non-nil for AppendAck callers: the record's ack
	held    bool       // the AppendAck caller gave up a hold; the ack returns it
	records int        // 0 for rotation barriers

	// Commit frames reach the device in GSN order across lanes. mark is
	// this commit frame's place in that order; prev is the previous
	// commit frame when it was on another lane and not yet durable at
	// enqueue. The committer writes this frame only once prev is durable
	// and fails it when prev failed, so a failure travels down the chain.
	mark *commitMark
	prev *commitMark

	rotate      bool   // open a new segment before writing this frame
	rotateBase  uint64 // BaseGSN for the new segment
	rotateCrash bool   // wal.rotate.crash: die between create and publish
	crash       bool   // wal.crash: die at the frame boundary
	tornCut     int    // wal.torn: write bytes[:tornCut+1], then die (-1 off)
	partialCut  int    // wal.group.partial: write bytes[:partialCut], then die (-1 off)
}

// commitMark is one commit frame's fate: done closes once the frame is
// durable (err nil) or doomed (err set first).
type commitMark struct {
	lane int
	err  error
	done chan struct{}
}

func (m *commitMark) resolve(err error) {
	m.err = err
	close(m.done)
}

// settled reports whether the frame's fate is already known.
func (m *commitMark) settled() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// durable reports whether the frame is settled without error.
func (m *commitMark) durable() bool { return m.settled() && m.err == nil }

// awaited reports whether someone waits on the frame: its AppendAck
// caller, or a later commit frame on another lane, which the committer
// holds until this one is durable.
func (fr *walFrame) awaited() bool { return fr.done != nil || fr.mark != nil }

// deliver settles frames with err. Every receiver that gave up a hold
// in AppendAck gets it back before the first ack is sent: a receiver
// that took it back only once it woke would find the count at zero
// while the others still sleep, and close a cohort of one. Commit marks
// settle before the ack, so a caller that saw its ack enqueues its next
// commit behind a settled predecessor.
func (w *ShardedWAL) deliver(err error, frames ...*walFrame) {
	held := int64(0)
	for _, fr := range frames {
		if fr.held {
			held++
		}
	}
	w.running.Add(held)
	for _, fr := range frames {
		if fr.mark != nil {
			fr.mark.resolve(err)
		}
		if fr.done != nil {
			fr.done <- err
		}
	}
}

// walShard is one durability lane: a bounded queue of encoded frames
// drained by a committer goroutine into the lane's current segment
// with one fsync per drained batch.
//
// mu is a leaf lock: nothing else is acquired under it, and all I/O
// happens outside it. cur/curIdx are committer-owned (no lock); queue,
// sequence counters, the error latch and the logical-size rotation
// accounting live under mu.
type walShard struct {
	idx int

	mu       sync.Mutex
	notEmpty sync.Cond // committer waits: frames queued or closing
	notFull  sync.Cond // producers wait: queue below depth
	synced   sync.Cond // Sync waiters: doneSeq caught up
	queue    []walFrame
	enqSeq   uint64 // frames ever enqueued
	awaited  int    // queued frames someone waits on (walFrame.awaited)
	syncTo   uint64 // drain at once until doneSeq reaches it (Sync, a held successor)
	doneSeq  uint64 // frames fully processed by the committer
	err      error  // sticky: injected crash or real I/O failure
	closed   bool
	logBytes int64 // logical size of the current segment

	cur    SegmentFile
	curIdx int

	batchHist *metrics.Histogram // records per group commit
	fsyncHist *metrics.Histogram // seconds per fsync
}

// ShardedWAL is a per-shard segmented write-ahead log with group
// commit and parallel recovery (DESIGN.md §5.4).
// Records are routed to lanes by transaction instance, so one
// transaction's records always share a lane and per-lane recovery is
// the single-log algorithm; a global sequence number (GSN)
// drawn at enqueue orders commits across lanes for replay.
//
// Commit frames reach the device in GSN order: a lane's committer
// writes a commit frame only after the previous commit frame, on
// whichever lane, is durable, and fails it when that one failed. Before
// holding a frame it writes, fsyncs and acks the batch prefix ahead of
// it, so the lowest pending commit always progresses. On one lane this
// is plain FIFO. An ack therefore means every lower-GSN commit is
// durable too, the sources the transaction read from included.
type ShardedWAL struct {
	backend SegmentBackend
	opt     SegmentedOptions
	router  shard.Router
	gsn     atomic.Uint64
	lanes   []*walShard
	tr      atomic.Pointer[trace.Tracer]
	inj     atomic.Pointer[fault.Injector]
	wg      sync.WaitGroup
	closed  atomic.Bool

	// running counts registered producers still running towards their
	// next commit record (Hold, Release, AppendAck, deliver). A lane
	// holding an awaited frame drains when it reads zero.
	running atomic.Int64

	// cmu orders commit frames: their GSN draw and the lastCommit swap
	// happen together under it. Leaf lock, taken under a lane mutex.
	cmu        sync.Mutex
	lastCommit *commitMark
	// failed closes when any lane latches an error: a held commit frame
	// fails with it instead of waiting on a lane that may never sync.
	failed   chan struct{}
	failOnce sync.Once

	appends      atomic.Int64
	fsyncs       atomic.Int64
	rotations    atomic.Int64
	groupCommits atomic.Int64

	mAppends   *metrics.Counter
	mFsyncs    *metrics.Counter
	mRotations *metrics.Counter
	mGroups    *metrics.Counter
}

// NewShardedWAL opens a segmented log over the backend: segment 0 of
// every lane is created, header-written, synced and published before
// any append, so even an empty run recovers cleanly.
func NewShardedWAL(backend SegmentBackend, opt SegmentedOptions) (*ShardedWAL, error) {
	if backend == nil {
		return nil, errors.New("storage: nil segment backend")
	}
	opt = opt.withDefaults()
	w := &ShardedWAL{backend: backend, opt: opt, router: shard.NewRouter(opt.Shards), failed: make(chan struct{})}
	for i := 0; i < opt.Shards; i++ {
		sh := &walShard{idx: i, logBytes: SegmentHeaderSize}
		sh.notEmpty.L = &sh.mu
		sh.notFull.L = &sh.mu
		sh.synced.L = &sh.mu
		f, err := openSegment(backend, i, 0, 0)
		if err != nil {
			return nil, err
		}
		sh.cur = f
		w.lanes = append(w.lanes, sh)
	}
	for _, sh := range w.lanes {
		w.wg.Add(1)
		go w.committer(sh)
	}
	return w, nil
}

// OpenShardedWAL is NewShardedWAL over a DirBackend rooted at dir,
// wiping any previous log there first.
func OpenShardedWAL(dir string, opt SegmentedOptions) (*ShardedWAL, error) {
	b := NewDirBackend(dir)
	if err := b.Reset(); err != nil {
		return nil, err
	}
	return NewShardedWAL(b, opt)
}

// openSegment creates, header-writes, syncs and publishes a segment.
func openSegment(b SegmentBackend, shardIdx, index int, baseGSN uint64) (SegmentFile, error) {
	f, err := b.Create(shardIdx, index)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeSegmentHeader(SegmentHeader{Shard: shardIdx, Index: index, BaseGSN: baseGSN})); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := b.Publish(shardIdx, index); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// SetTracer installs a structured-event sink on every lane.
func (w *ShardedWAL) SetTracer(tr *trace.Tracer) { w.tr.Store(tr) }

// SetInjector arms the log's fault points (wal.crash, wal.torn,
// wal.corrupt, wal.rotate.crash, wal.group.partial). Faults are
// consulted at enqueue time in append order, so the deterministic
// driver's fault schedule does not depend on committer timing.
func (w *ShardedWAL) SetInjector(in *fault.Injector) { w.inj.Store(in) }

// SetMetrics wires the log's counters and per-lane histograms
// (wal.shardNN.fsync_seconds, wal.shardNN.batch_records) into the
// registry. Call before appending.
func (w *ShardedWAL) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	w.mAppends = reg.Counter("wal.appends")
	w.mFsyncs = reg.Counter("wal.fsyncs")
	w.mRotations = reg.Counter("wal.rotations")
	w.mGroups = reg.Counter("wal.group_commits")
	for _, sh := range w.lanes {
		sh.batchHist = reg.Histogram(fmt.Sprintf("wal.shard%02d.batch_records", sh.idx))
		sh.fsyncHist = reg.Histogram(fmt.Sprintf("wal.shard%02d.fsync_seconds", sh.idx))
	}
}

// Shards returns the number of durability lanes.
func (w *ShardedWAL) Shards() int { return w.opt.Shards }

// Append enqueues one record on its instance's lane and returns
// without waiting for durability; a latched lane error fails fast.
func (w *ShardedWAL) Append(rec WALRecord) error {
	_, err := w.enqueue(rec, false)
	return err
}

// AppendAck enqueues one record and returns the channel the lane's
// committer acks it on once the batch holding it is fsynced. While
// registered producers run, the caller is one of them and gives up its
// hold; the committer returns it with the ack.
func (w *ShardedWAL) AppendAck(rec WALRecord) (<-chan error, error) {
	return w.enqueue(rec, true)
}

// Hold registers one producer running towards its next commit record.
// The concurrent driver holds for each worker it starts, for each
// parked worker it wakes (before the worker runs), and once more while
// it publishes a commit that may wake some.
func (w *ShardedWAL) Hold() { w.running.Add(1) }

// Release moves one registered producer to waiting, on another
// producer or for good. A producer that waits without releasing keeps
// every lane's awaited frames from draining; the concurrent driver
// releases while a worker is parked on a stripe or the commit queue,
// sleeps out admission shedding or a restart back-off, idles on an
// empty work queue, and when it exits. The release that leaves none
// running wakes every lane: a lane whose frames nobody appended just
// now may still be the one a held commit frame on another lane waits
// for.
func (w *ShardedWAL) Release() {
	if w.running.Add(-1) == 0 {
		w.wakeLanes()
	}
}

// takeHold moves an AppendAck caller from running to waiting, if
// registered producers run at all, and reports whether it did and
// whether none is left running.
func (w *ShardedWAL) takeHold() (held, last bool) {
	for {
		n := w.running.Load()
		if n <= 0 {
			return false, false
		}
		if w.running.CompareAndSwap(n, n-1) {
			return true, n == 1
		}
	}
}

// wakeLanes signals every lane's committer to re-check its drain rule.
func (w *ShardedWAL) wakeLanes() {
	for _, sh := range w.lanes {
		sh.mu.Lock()
		if sh.awaited > 0 {
			sh.notEmpty.Signal()
		}
		sh.mu.Unlock()
	}
}

// drainLocked asks the lane to drain everything queued so far whether
// or not producers still run: Sync waits for it, and a held commit
// frame on another lane may wait for a frame in it. Called with sh.mu
// held.
func (sh *walShard) drainLocked() {
	if sh.doneSeq < sh.enqSeq {
		sh.syncTo = max(sh.syncTo, sh.enqSeq)
		sh.notEmpty.Signal()
	}
}

// AppendSync is AppendAck followed by the wait for the ack.
func (w *ShardedWAL) AppendSync(rec WALRecord) error {
	done, err := w.AppendAck(rec)
	if done != nil {
		if derr := <-done; err == nil {
			err = derr
		}
	}
	return err
}

// latchLocked records a lane's sticky error and tells held commit
// frames on every other lane. Called with sh.mu held.
func (w *ShardedWAL) latchLocked(sh *walShard, err error) {
	if sh.err == nil {
		sh.err = err
		w.failOnce.Do(func() { close(w.failed) })
	}
}

// enqueue assigns the record a GSN, decides rotation and injected
// faults under the lane mutex (append order == fault-schedule order),
// and hands the encoded frame to the committer.
func (w *ShardedWAL) enqueue(rec WALRecord, wait bool) (chan error, error) {
	sh := w.lanes[w.router.ShardID(rec.Instance)]
	sh.mu.Lock()
	for len(sh.queue) >= w.opt.QueueDepth && sh.err == nil && !sh.closed {
		sh.notFull.Wait()
	}
	if sh.err != nil {
		err := sh.err
		sh.mu.Unlock()
		return nil, err
	}
	if sh.closed {
		sh.mu.Unlock()
		return nil, errWALClosed
	}
	fr := walFrame{records: 1, tornCut: -1, partialCut: -1}
	var gsn uint64
	if rec.Kind == WALCommit {
		fr.mark = &commitMark{lane: sh.idx, done: make(chan struct{})}
		//rsvet:allow stripelock -- cmu is a leaf taken under one lane mutex, never the reverse: a commit frame's GSN, chain position and queue slot must agree
		w.cmu.Lock()
		gsn = w.gsn.Add(1)
		prev := w.lastCommit
		w.lastCommit = fr.mark
		w.cmu.Unlock()
		// A predecessor on this lane is ahead of this frame in the
		// queue, and the committer fails everything behind a failure. One
		// on another lane is kept unless already durable: the committer
		// waits for it and fails this frame if it failed, even before
		// this enqueue. The deterministic driver waits for every ack, so
		// its frames never wait.
		if prev != nil && prev.lane != sh.idx && !prev.durable() {
			fr.prev = prev
		}
	} else {
		gsn = w.gsn.Add(1)
	}
	fr.bytes = appendSegFrame(nil, gsn, rec)
	if sh.logBytes+int64(len(fr.bytes)) > w.opt.SegmentBytes && sh.logBytes > SegmentHeaderSize {
		// This frame opens a new segment. BaseGSN is gsn-1: every
		// record landing there (this one first) has a larger GSN.
		fr.rotate = true
		fr.rotateBase = gsn - 1
		sh.logBytes = SegmentHeaderSize
	}
	sh.logBytes += int64(len(fr.bytes))
	crash := decideFaults(w.inj.Load(), sh, &fr)
	if crash {
		w.latchLocked(sh, fault.ErrCrash)
	}
	last := false
	if wait {
		fr.done = make(chan error, 1)
		fr.held, last = w.takeHold()
	}
	if fr.awaited() {
		sh.awaited++
	}
	sh.queue = append(sh.queue, fr)
	sh.enqSeq++
	if fr.rotate {
		w.rotations.Add(1)
		w.mRotations.Inc()
		if tr := w.tr.Load(); tr.Wants(trace.KindWALRotate) {
			tr.Emit(trace.Event{Kind: trace.KindWALRotate, Instance: rec.Instance, Value: int64(gsn)})
		}
	}
	w.appends.Add(1)
	w.mAppends.Inc()
	if tr := w.tr.Load(); tr.Wants(trace.KindWALAppend) {
		tr.Emit(trace.Event{
			Kind: trace.KindWALAppend, Instance: rec.Instance,
			Object: rec.Object, Op: rec.Kind.String(), Value: int64(rec.Value),
		})
	}
	sh.notEmpty.Signal()
	sh.mu.Unlock()
	if last {
		w.wakeLanes()
	}
	if crash {
		return fr.done, fault.ErrCrash
	}
	return fr.done, nil
}

// decideFaults consults the armed fault points for one frame, in a
// fixed order, attaching the firing instructions to the frame for the
// committer to execute. Returns whether the lane must latch a crash.
//
// Called with sh.mu held — deliberately: determinism requires the
// injector's call-index order to equal the append order, and the lane
// mutex is a leaf (no I/O, no other locks beneath it), so the consult
// cannot deadlock or stall foreign lanes.
//
//rsvet:locks sh.mu
func decideFaults(in *fault.Injector, sh *walShard, fr *walFrame) bool {
	_ = sh // documents the contract; the lane's queue order is the fault order
	crash := false
	//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the lane mutex
	if in.Fire(fault.WALCrash) {
		fr.crash = true
		crash = true
	}
	if fr.rotate && !crash {
		//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the lane mutex
		if in.Fire(fault.WALRotateCrash) {
			fr.rotateCrash = true
			crash = true
		}
	}
	if !crash {
		//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the lane mutex
		if fired, cut := in.FireCut(fault.WALTorn, len(fr.bytes)-1); fired {
			fr.tornCut = cut
			crash = true
		}
	}
	if !crash {
		//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the lane mutex
		if fired, cut := in.FireCut(fault.WALGroupPartial, len(fr.bytes)); fired {
			fr.partialCut = cut
			crash = true
		}
	}
	//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the lane mutex
	if fired, cut := in.FireCut(fault.WALCorrupt, (len(fr.bytes)-segFrameHeaderSize)*8); fired {
		// Flip one payload bit after the checksum was sealed: a lying
		// disk the segment scan must catch.
		fr.bytes[segFrameHeaderSize+cut/8] ^= 1 << (cut % 8)
	}
	return crash
}

// committer drains one lane: swap the queue out under the mutex, do
// all I/O outside it, then advance doneSeq and wake Sync waiters. Once
// a batch fails, every frame queued behind it fails with the same error.
//
// The lane drains when it holds an awaited frame (an AppendAck record
// or a commit record) and no registered producer is still running
// towards its next commit record: the cohort is complete, and one fsync
// covers it. It also drains at once on Sync, on Close, on a latched
// error, on a full queue and when a held commit frame on another lane
// waits for one of its frames. A batch of only non-awaited frames
// (Begin and Write records) waits for the next commit instead of
// paying an fsync nobody waits for.
func (w *ShardedWAL) committer(sh *walShard) {
	defer w.wg.Done()
	var dead error
	for {
		sh.mu.Lock()
		for !sh.closed && !w.drainable(sh) {
			sh.notEmpty.Wait()
		}
		if len(sh.queue) == 0 {
			sh.mu.Unlock()
			return
		}
		batch := sh.queue
		sh.queue, sh.awaited = nil, 0
		sh.notFull.Broadcast()
		sh.mu.Unlock()

		err := w.flushBatch(sh, batch, dead)

		sh.mu.Lock()
		sh.doneSeq += uint64(len(batch))
		if err != nil {
			dead = err
			w.latchLocked(sh, err)
		}
		sh.synced.Broadcast()
		sh.mu.Unlock()
	}
}

// drainable is the committer's drain rule (see committer). Called with
// sh.mu held.
func (w *ShardedWAL) drainable(sh *walShard) bool {
	switch {
	case len(sh.queue) == 0:
		return false
	case sh.err != nil || sh.syncTo > sh.doneSeq || len(sh.queue) >= w.opt.QueueDepth:
		return true
	default:
		return sh.awaited > 0 && w.running.Load() == 0
	}
}

// flushBatch writes a drained batch into the lane's segment chain with
// one fsync for the lot — or, when a commit frame must wait for its
// predecessor on another lane, one fsync for the prefix ahead of it and
// one for the rest. Injected faults attached to frames are executed
// here: a torn or partial frame's prefix bytes still reach the device
// (that is the point), every later frame in the batch fails with the
// same crash. failed is an earlier batch's failure, which every frame
// of this one inherits. Returns the batch's failure for the lane to
// latch (a no-op for injected crashes, latched at enqueue).
func (w *ShardedWAL) flushBatch(sh *walShard, batch []walFrame, failed error) error {
	var ioErr error       // real I/O failure: clean frames are acked with it
	var pending []byte    // frame bytes accumulated for one write
	var clean []*walFrame // written frames awaiting the fsync
	records := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		_, err := sh.cur.Write(pending)
		pending = pending[:0]
		return err
	}
	fail := func(err error) {
		failed = err
		if !errors.Is(err, fault.ErrCrash) && ioErr == nil {
			ioErr = err
		}
	}
	groupCommit := func() {
		if err := flush(); err != nil {
			fail(err)
		}
		start := time.Now()
		if err := sh.cur.Sync(); err != nil {
			fail(err)
		}
		elapsed := time.Since(start)
		w.fsyncs.Add(1)
		w.groupCommits.Add(1)
		w.mFsyncs.Inc()
		w.mGroups.Inc()
		sh.fsyncHist.Observe(elapsed.Seconds())
		sh.batchHist.Observe(float64(records))
		if tr := w.tr.Load(); tr.Wants(trace.KindWALGroupCommit) {
			tr.Emit(trace.Event{Kind: trace.KindWALGroupCommit, Instance: int64(sh.idx), Value: int64(records)})
		}
		// Frames are durable (or doomed) now: ack the clean ones with
		// whatever the write+fsync concluded.
		w.deliver(ioErr, clean...)
		clean, records = clean[:0], 0
	}
	for i := range batch {
		fr := &batch[i]
		if failed == nil && fr.prev != nil {
			if !fr.prev.settled() {
				if len(clean) > 0 {
					groupCommit() // the lowest pending commit may be in this prefix
				}
				w.hurry(fr.prev.lane)
			}
			if failed == nil {
				if err := w.awaitCommit(fr.prev); err != nil {
					fail(err)
				}
			}
		}
		if failed == nil && fr.rotate {
			if err := flush(); err != nil {
				fail(err)
			} else if err := w.rotate(sh, fr); err != nil {
				fail(err)
			}
		}
		if failed != nil {
			w.deliver(failed, fr)
			continue
		}
		switch {
		case fr.crash:
			fail(fault.ErrCrash)
		case fr.tornCut >= 0:
			pending = append(pending, fr.bytes[:fr.tornCut+1]...)
			fail(fault.ErrCrash)
		case fr.partialCut >= 0:
			pending = append(pending, fr.bytes[:fr.partialCut]...)
			fail(fault.ErrCrash)
		default:
			pending = append(pending, fr.bytes...)
			records += fr.records
			clean = append(clean, fr)
			continue
		}
		w.deliver(failed, fr)
	}
	groupCommit()
	return failed
}

// hurry makes a lane drain what it holds now: a held commit frame
// waits for a predecessor there, whose producers may still be running.
func (w *ShardedWAL) hurry(lane int) {
	sh := w.lanes[lane]
	sh.mu.Lock()
	sh.drainLocked()
	sh.mu.Unlock()
}

// awaitCommit parks the committer until a held frame's predecessor is
// settled and returns its failure. A crash latched on any lane fails the
// held frame instead: the predecessor's lane may never sync again.
func (w *ShardedWAL) awaitCommit(prev *commitMark) error {
	if !prev.settled() {
		select {
		case <-prev.done:
		case <-w.failed:
			return w.Err()
		}
	}
	return prev.err
}

// rotate seals the lane's current segment and opens the next one:
// sync, close, create k+1, write+sync its header, publish, swap. An
// injected wal.rotate.crash dies after the header sync but before
// publish, leaving an unpublished segment recovery must ignore.
func (w *ShardedWAL) rotate(sh *walShard, fr *walFrame) error {
	if err := sh.cur.Sync(); err != nil {
		return err
	}
	if err := sh.cur.Close(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	w.mFsyncs.Inc()
	next := sh.curIdx + 1
	f, err := w.backend.Create(sh.idx, next)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegmentHeader(SegmentHeader{Shard: sh.idx, Index: next, BaseGSN: fr.rotateBase})); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if fr.rotateCrash {
		f.Close()
		return fault.ErrCrash
	}
	if err := w.backend.Publish(sh.idx, next); err != nil {
		f.Close()
		return err
	}
	sh.cur = f
	sh.curIdx = next
	return nil
}

// Sync blocks until every record enqueued before the call is durable
// (or failed), then reports the first latched lane error. It asks every
// lane to drain before it waits on any: a commit frame on one lane may
// wait for its predecessor on the next.
func (w *ShardedWAL) Sync() error {
	targets := make([]uint64, len(w.lanes))
	for i, sh := range w.lanes {
		sh.mu.Lock()
		targets[i] = sh.enqSeq
		sh.drainLocked()
		sh.mu.Unlock()
	}
	for i, sh := range w.lanes {
		sh.mu.Lock()
		for sh.doneSeq < targets[i] {
			sh.synced.Wait()
		}
		sh.mu.Unlock()
	}
	return w.Err()
}

// Err returns the first latched lane error without waiting, and with
// no lock until latchLocked has closed failed.
func (w *ShardedWAL) Err() error {
	select {
	case <-w.failed:
	default:
		return nil
	}
	for _, sh := range w.lanes {
		sh.mu.Lock()
		err := sh.err
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close drains every lane, stops the committers and closes the current
// segments. Idempotent; returns the first latched error.
func (w *ShardedWAL) Close() error {
	if w.closed.Swap(true) {
		return w.Err()
	}
	for _, sh := range w.lanes {
		sh.mu.Lock()
		sh.closed = true
		sh.notEmpty.Broadcast()
		sh.notFull.Broadcast()
		sh.mu.Unlock()
	}
	w.wg.Wait()
	for _, sh := range w.lanes {
		sh.cur.Sync()  //nolint:errcheck // final best-effort flush
		sh.cur.Close() //nolint:errcheck
	}
	return w.Err()
}

// ShardedWALStats is a point-in-time counter snapshot.
type ShardedWALStats struct {
	Appends      int64
	Fsyncs       int64
	Rotations    int64
	GroupCommits int64
}

// Stats snapshots the log's counters.
func (w *ShardedWAL) Stats() ShardedWALStats {
	return ShardedWALStats{
		Appends:      w.appends.Load(),
		Fsyncs:       w.fsyncs.Load(),
		Rotations:    w.rotations.Load(),
		GroupCommits: w.groupCommits.Load(),
	}
}
