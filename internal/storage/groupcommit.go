package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/trace"
)

// WALSink is the durability interface the engine logs through.
// ShardedWAL is the one log behind it; decorators (the benchmark
// ladder's timed sink) wrap it.
type WALSink interface {
	// Append enqueues one record without waiting for durability.
	Append(rec WALRecord) error
	// AppendAck enqueues one record and returns the channel the log
	// acknowledges it on: nil once the record is durable, the failure
	// otherwise. The engine's publish stage enqueues a commit record
	// under the lifecycle lock and its acknowledge stage receives the
	// ack with no lock held, so one fsync can cover the commit records
	// of many transactions. While registered producers run (Hold), the
	// caller is taken to be one of them: it moves to waiting, and the
	// log moves it back to running just before the ack is sent. The log
	// drains once no registered producer is running, so one fsync
	// covers the commit records of every producer that published
	// meanwhile. The channel may be non-nil even when the error is (an
	// injected crash on this very record).
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

// SegmentedOptions tunes the segmented WAL.
type SegmentedOptions struct {
	// Deprecated: the log has one lane. NewShardedWAL accepts 0 or 1
	// and refuses any other count; the field goes once the benchmark
	// module stops setting it.
	Shards int
	// SegmentBytes rotates the segment once its logical size (header +
	// frames) would exceed it. Default 1 MiB.
	SegmentBytes int64
	// QueueDepth bounds the pending-append queue; producers block when
	// the committer falls this far behind. Default 1024.
	QueueDepth int
}

func (o SegmentedOptions) withDefaults() SegmentedOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// walFrame is one enqueued unit of work for the committer. Fault
// decisions are made at enqueue time — under the log mutex, in append
// order — so the injector's deterministic schedule is independent of
// committer timing; the committer only executes the instructions.
type walFrame struct {
	bytes []byte
	done  chan error // non-nil for AppendAck callers: the record's ack
	held  bool       // the AppendAck caller gave up a hold; the ack returns it

	rotate      bool   // open a new segment before writing this frame
	rotateBase  uint64 // BaseGSN for the new segment
	rotateCrash bool   // wal.rotate.crash: die between create and publish
	crash       bool   // wal.crash: die at the frame boundary
	tornCut     int    // wal.torn: write bytes[:tornCut+1], then die (-1 off)
	partialCut  int    // wal.group.partial: write bytes[:partialCut], then die (-1 off)
}

// deliver acks frames with err. Every receiver that gave up a hold in
// AppendAck gets it back before the first ack is sent: a receiver that
// took it back only once it woke would find the count at zero while the
// others still sleep, and close a cohort of one.
func (w *ShardedWAL) deliver(err error, frames ...*walFrame) {
	held := int64(0)
	for _, fr := range frames {
		if fr.held {
			held++
		}
	}
	w.running.Add(held)
	for _, fr := range frames {
		if fr.done != nil {
			fr.done <- err
		}
	}
}

// ShardedWAL is the segmented write-ahead log with group commit
// (DESIGN.md §5.4): one FIFO queue of encoded frames, drained by one
// committer goroutine into one segment chain with one fsync per drained
// batch. Frames reach the device in append order, so every crash image
// is a prefix of the log and an ack means every earlier record is
// durable too, the commits the transaction read from included.
//
// mu is a leaf lock: nothing else is acquired under it, and all I/O
// happens outside it. cur/curIdx are committer-owned (no lock); the
// queue, the sequence counters and the rotation accounting live under
// mu.
type ShardedWAL struct {
	backend SegmentBackend
	opt     SegmentedOptions
	gsn     atomic.Uint64
	tr      atomic.Pointer[trace.Tracer]
	inj     atomic.Pointer[fault.Injector]
	done    chan struct{} // closed when the committer exits

	// running counts registered producers still running towards their
	// next commit record (Hold, Release, AppendAck, deliver). The log
	// drains an awaited frame when it reads zero.
	running atomic.Int64

	// err is the sticky failure (injected crash or real I/O error),
	// written once under mu and read without it.
	err atomic.Pointer[error]

	mu       sync.Mutex
	notEmpty sync.Cond // committer waits: frames queued or closing
	notFull  sync.Cond // producers wait: queue below depth
	synced   sync.Cond // Sync waiters: doneSeq caught up
	queue    []walFrame
	enqSeq   uint64 // frames ever enqueued
	awaited  int    // queued frames an AppendAck caller waits on
	syncTo   uint64 // drain at once until doneSeq reaches it (Sync)
	doneSeq  uint64 // frames fully processed by the committer
	closed   bool
	logBytes int64 // logical size of the current segment

	cur    SegmentFile
	curIdx int

	appends      atomic.Int64
	fsyncs       atomic.Int64
	rotations    atomic.Int64
	groupCommits atomic.Int64

	mAppends   *metrics.Counter
	mFsyncs    *metrics.Counter
	mRotations *metrics.Counter
	mGroups    *metrics.Counter
	batchHist  *metrics.Histogram // records per group commit
	fsyncHist  *metrics.Histogram // seconds per fsync
}

// NewShardedWAL opens a segmented log over the backend: segment 0 is
// created, header-written, synced and published before any append, so
// even an empty run recovers cleanly.
func NewShardedWAL(backend SegmentBackend, opt SegmentedOptions) (*ShardedWAL, error) {
	if backend == nil {
		return nil, errors.New("storage: nil segment backend")
	}
	if opt.Shards < 0 || opt.Shards > 1 {
		return nil, fmt.Errorf("storage: the log has one lane, not %d", opt.Shards)
	}
	w := &ShardedWAL{backend: backend, opt: opt.withDefaults(), done: make(chan struct{}), logBytes: SegmentHeaderSize}
	w.notEmpty.L = &w.mu
	w.notFull.L = &w.mu
	w.synced.L = &w.mu
	f, err := openSegment(backend, 0, 0)
	if err != nil {
		return nil, err
	}
	w.cur = f
	go w.committer()
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
func openSegment(b SegmentBackend, index int, baseGSN uint64) (SegmentFile, error) {
	f, err := b.Create(0, index)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeSegmentHeader(SegmentHeader{Index: index, BaseGSN: baseGSN})); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := b.Publish(0, index); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// SetTracer installs a structured-event sink.
func (w *ShardedWAL) SetTracer(tr *trace.Tracer) { w.tr.Store(tr) }

// SetInjector arms the log's fault points (wal.crash, wal.torn,
// wal.corrupt, wal.rotate.crash, wal.group.partial). Faults are
// consulted at enqueue time in append order, so the deterministic
// driver's fault schedule does not depend on committer timing.
func (w *ShardedWAL) SetInjector(in *fault.Injector) { w.inj.Store(in) }

// SetMetrics wires the log's counters and histograms
// (wal.shard00.fsync_seconds, wal.shard00.batch_records) into the
// registry. Call before appending.
func (w *ShardedWAL) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	w.mAppends = reg.Counter("wal.appends")
	w.mFsyncs = reg.Counter("wal.fsyncs")
	w.mRotations = reg.Counter("wal.rotations")
	w.mGroups = reg.Counter("wal.group_commits")
	w.batchHist = reg.Histogram("wal.shard00.batch_records")
	w.fsyncHist = reg.Histogram("wal.shard00.fsync_seconds")
}

// Append enqueues one record and returns without waiting for
// durability; a latched error fails fast.
func (w *ShardedWAL) Append(rec WALRecord) error {
	_, err := w.enqueue(rec, false)
	return err
}

// AppendAck enqueues one record and returns the channel the committer
// acks it on once the batch holding it is fsynced. While registered
// producers run, the caller is one of them and gives up its hold; the
// committer returns it with the ack.
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
// awaited frames from draining; the concurrent driver releases while a
// worker is parked on a stripe or the commit queue, sleeps out
// admission shedding or a restart back-off, idles on an empty work
// queue, and when it exits. The release that leaves none running wakes
// the committer.
func (w *ShardedWAL) Release() {
	if w.running.Add(-1) == 0 {
		w.mu.Lock()
		if w.awaited > 0 {
			w.notEmpty.Signal()
		}
		w.mu.Unlock()
	}
}

// takeHold moves an AppendAck caller from running to waiting, if
// registered producers run at all, and reports whether it did.
func (w *ShardedWAL) takeHold() bool {
	for {
		n := w.running.Load()
		if n <= 0 {
			return false
		}
		if w.running.CompareAndSwap(n, n-1) {
			return true
		}
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

// latchLocked records the sticky error; the first one wins. Called with
// w.mu held.
func (w *ShardedWAL) latchLocked(err error) { w.err.CompareAndSwap(nil, &err) }

// enqueue assigns the record a GSN, decides rotation and injected
// faults under the mutex (append order == fault-schedule order), and
// hands the encoded frame to the committer.
func (w *ShardedWAL) enqueue(rec WALRecord, wait bool) (chan error, error) {
	w.mu.Lock()
	for len(w.queue) >= w.opt.QueueDepth && w.err.Load() == nil && !w.closed {
		w.notFull.Wait()
	}
	if err := w.Err(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	if w.closed {
		w.mu.Unlock()
		return nil, errWALClosed
	}
	fr := walFrame{tornCut: -1, partialCut: -1}
	gsn := w.gsn.Add(1)
	fr.bytes = appendSegFrame(nil, gsn, rec)
	if w.logBytes+int64(len(fr.bytes)) > w.opt.SegmentBytes && w.logBytes > SegmentHeaderSize {
		// This frame opens a new segment. BaseGSN is gsn-1: every
		// record landing there (this one first) has a larger GSN.
		fr.rotate = true
		fr.rotateBase = gsn - 1
		w.logBytes = SegmentHeaderSize
	}
	w.logBytes += int64(len(fr.bytes))
	crash := w.decideFaults(&fr)
	if crash {
		w.latchLocked(fault.ErrCrash)
	}
	if wait {
		fr.done = make(chan error, 1)
		fr.held = w.takeHold()
		w.awaited++
	}
	w.queue = append(w.queue, fr)
	w.enqSeq++
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
	w.notEmpty.Signal()
	w.mu.Unlock()
	if crash {
		return fr.done, fault.ErrCrash
	}
	return fr.done, nil
}

// decideFaults consults the armed fault points for one frame, in a
// fixed order, attaching the firing instructions to the frame for the
// committer to execute. Returns whether the log must latch a crash.
//
// Called with w.mu held — deliberately: determinism requires the
// injector's call-index order to equal the append order, and the log
// mutex is a leaf (no I/O, no other locks beneath it), so the consult
// cannot deadlock.
//
//rsvet:locks w.mu
func (w *ShardedWAL) decideFaults(fr *walFrame) bool {
	in := w.inj.Load()
	crash := false
	//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the log mutex
	if in.Fire(fault.WALCrash) {
		fr.crash = true
		crash = true
	}
	if fr.rotate && !crash {
		//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the log mutex
		if in.Fire(fault.WALRotateCrash) {
			fr.rotateCrash = true
			crash = true
		}
	}
	if !crash {
		//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the log mutex
		if fired, cut := in.FireCut(fault.WALTorn, len(fr.bytes)-1); fired {
			fr.tornCut = cut
			crash = true
		}
	}
	if !crash {
		//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the log mutex
		if fired, cut := in.FireCut(fault.WALGroupPartial, len(fr.bytes)); fired {
			fr.partialCut = cut
			crash = true
		}
	}
	//rsvet:allow stripelock -- deterministic fault decision must happen in append order under the log mutex
	if fired, cut := in.FireCut(fault.WALCorrupt, (len(fr.bytes)-segFrameHeaderSize)*8); fired {
		// Flip one payload bit after the checksum was sealed: a lying
		// disk the segment scan must catch.
		fr.bytes[segFrameHeaderSize+cut/8] ^= 1 << (cut % 8)
	}
	return crash
}

// committer drains the queue: swap it out under the mutex, do all I/O
// outside it, then advance doneSeq and wake Sync waiters. Once a batch
// fails, every frame queued behind it fails with the same error.
//
// The log drains when it holds an awaited frame (an AppendAck record)
// and no registered producer is still running towards its next commit
// record: the cohort is complete, and one fsync covers it. It also
// drains at once on Sync, on Close, on a latched error and on a full
// queue. A batch of only non-awaited frames (Begin and Write records)
// waits for the next commit instead of paying an fsync nobody waits
// for.
func (w *ShardedWAL) committer() {
	defer close(w.done)
	var dead error
	for {
		w.mu.Lock()
		for !w.closed && !w.drainable() {
			w.notEmpty.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue, w.awaited = nil, 0
		w.notFull.Broadcast()
		w.mu.Unlock()

		err := w.flushBatch(batch, dead)

		w.mu.Lock()
		w.doneSeq += uint64(len(batch))
		if err != nil {
			dead = err
			w.latchLocked(err)
		}
		w.synced.Broadcast()
		w.mu.Unlock()
	}
}

// drainable is the committer's drain rule (see committer). Called with
// w.mu held.
func (w *ShardedWAL) drainable() bool {
	switch {
	case len(w.queue) == 0:
		return false
	case w.err.Load() != nil || w.syncTo > w.doneSeq || len(w.queue) >= w.opt.QueueDepth:
		return true
	default:
		return w.awaited > 0 && w.running.Load() == 0
	}
}

// flushBatch writes a drained batch into the segment chain with one
// fsync for the lot. Injected faults attached to frames are executed
// here: a torn or partial frame's prefix bytes still reach the device
// (that is the point), every later frame in the batch fails with the
// same crash. failed is an earlier batch's failure, which every frame
// of this one inherits. Returns the batch's failure for the log to
// latch (a no-op for injected crashes, latched at enqueue).
func (w *ShardedWAL) flushBatch(batch []walFrame, failed error) error {
	var ioErr error       // real I/O failure: clean frames are acked with it
	var pending []byte    // frame bytes accumulated for one write
	var clean []*walFrame // written frames awaiting the fsync
	fail := func(err error) {
		failed = err
		if !errors.Is(err, fault.ErrCrash) && ioErr == nil {
			ioErr = err
		}
	}
	flush := func() {
		if len(pending) > 0 {
			if _, err := w.cur.Write(pending); err != nil {
				fail(err)
			}
			pending = pending[:0]
		}
	}
	for i := range batch {
		fr := &batch[i]
		if failed == nil && fr.rotate {
			if flush(); failed == nil {
				if err := w.rotate(fr); err != nil {
					fail(err)
				}
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
			clean = append(clean, fr)
			continue
		}
		w.deliver(failed, fr)
	}
	flush()
	start := time.Now()
	if err := w.cur.Sync(); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	w.fsyncs.Add(1)
	w.groupCommits.Add(1)
	w.mFsyncs.Inc()
	w.mGroups.Inc()
	w.fsyncHist.Observe(elapsed.Seconds())
	w.batchHist.Observe(float64(len(clean)))
	if tr := w.tr.Load(); tr.Wants(trace.KindWALGroupCommit) {
		tr.Emit(trace.Event{Kind: trace.KindWALGroupCommit, Value: int64(len(clean))})
	}
	// Frames are durable (or doomed) now: ack the clean ones with
	// whatever the write+fsync concluded.
	w.deliver(ioErr, clean...)
	return failed
}

// rotate seals the current segment and opens the next one: sync,
// close, create k+1, write+sync its header, publish, swap. An injected
// wal.rotate.crash dies after the header sync but before publish,
// leaving an unpublished segment recovery must ignore.
func (w *ShardedWAL) rotate(fr *walFrame) error {
	if err := w.cur.Sync(); err != nil {
		return err
	}
	if err := w.cur.Close(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	w.mFsyncs.Inc()
	next := w.curIdx + 1
	f, err := w.backend.Create(0, next)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegmentHeader(SegmentHeader{Index: next, BaseGSN: fr.rotateBase})); err != nil {
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
	if err := w.backend.Publish(0, next); err != nil {
		f.Close()
		return err
	}
	w.cur = f
	w.curIdx = next
	return nil
}

// Sync blocks until every record enqueued before the call is durable
// (or failed), then reports the latched error.
func (w *ShardedWAL) Sync() error {
	w.mu.Lock()
	target := w.enqSeq
	if w.doneSeq < target {
		w.syncTo = max(w.syncTo, target)
		w.notEmpty.Signal()
	}
	for w.doneSeq < target {
		w.synced.Wait()
	}
	w.mu.Unlock()
	return w.Err()
}

// Err returns the latched error without waiting and without a lock.
func (w *ShardedWAL) Err() error {
	if err := w.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Close drains the queue, stops the committer and closes the current
// segment. Idempotent; returns the latched error.
func (w *ShardedWAL) Close() error {
	w.mu.Lock()
	closed := w.closed
	w.closed = true
	w.notEmpty.Broadcast()
	w.notFull.Broadcast()
	w.mu.Unlock()
	if closed {
		return w.Err()
	}
	<-w.done
	w.cur.Sync()  //nolint:errcheck // final best-effort flush
	w.cur.Close() //nolint:errcheck
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
