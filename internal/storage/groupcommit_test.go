package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"relser/internal/fault"
	"relser/internal/metrics"
)

// laneInstance returns the first instance id >= from that routes to
// lane — tests use it to place transactions on chosen shards.
func laneInstance(w *ShardedWAL, lane int, from int64) int64 {
	for id := from; ; id++ {
		if w.router.ShardID(id) == lane {
			return id
		}
	}
}

// logTxn appends begin, one write per (object, value) pair, and a
// commit for instance id, waiting for the commit's durability.
func logTxn(t testing.TB, w *ShardedWAL, id int64, object string, v Value) {
	t.Helper()
	if err := w.Append(WALRecord{Kind: WALBegin, Instance: id}); err != nil {
		t.Fatalf("begin %d: %v", id, err)
	}
	if err := w.Append(WALRecord{Kind: WALWrite, Instance: id, Object: object, Value: v}); err != nil {
		t.Fatalf("write %d: %v", id, err)
	}
	if err := w.AppendSync(WALRecord{Kind: WALCommit, Instance: id}); err != nil {
		t.Fatalf("commit %d: %v", id, err)
	}
}

// TestShardedWALConcurrentRecoveryEquality drives concurrent producers
// through a rotating 4-lane log and checks that recovery reproduces
// exactly the acknowledged commits.
func TestShardedWALConcurrentRecoveryEquality(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 4, SegmentBytes: 512, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	const producers, txns = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				id := int64(g*1000 + i + 1)
				logTxn(t, w, id, fmt.Sprintf("t%d", id), Value(id))
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	stats := w.Stats()
	if stats.Appends != producers*txns*3 {
		t.Fatalf("appends = %d, want %d", stats.Appends, producers*txns*3)
	}
	if stats.Rotations == 0 {
		t.Fatal("512-byte segments never rotated")
	}
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	// Each rotation seals one segment and publishes its successor; the
	// sealed ones stay published, and recovery reads them all.
	published := 0
	for _, segs := range set.Shards {
		published += len(segs)
	}
	if want := 4 + int(stats.Rotations); published != want || set.Unpublished != 0 {
		t.Fatalf("%d published segments (%d unpublished), want %d: 4 lanes + %d rotations", published, set.Unpublished, want, stats.Rotations)
	}
	st, rep, err := RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("recovery not clean: %s", rep)
	}
	if rep.Committed != producers*txns {
		t.Fatalf("recovered %d commits, want %d", rep.Committed, producers*txns)
	}
	snap := st.Snapshot()
	for g := 0; g < producers; g++ {
		for i := 0; i < txns; i++ {
			id := int64(g*1000 + i + 1)
			if got := snap[fmt.Sprintf("t%d", id)]; got != Value(id) {
				t.Fatalf("t%d = %d after recovery, want %d", id, got, id)
			}
		}
	}
}

// TestShardedWALGroupCommitBatching holds the committer on a slow
// fsync while async appends pile up: far fewer group commits than
// records must result.
func TestShardedWALGroupCommitBatching(t *testing.T) {
	mem := NewMemBackend()
	mem.SyncDelay = 2 * time.Millisecond
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 1, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 1; i <= n; i++ {
		logAsync(t, w, int64(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	stats := w.Stats()
	if stats.GroupCommits >= n {
		t.Fatalf("%d group commits for %d transactions: no batching", stats.GroupCommits, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitWaitsForAcksOnly runs eight registered (Hold)
// closed-loop AppendSync producers on one lane at GOMAXPROCS(1) beside
// an unregistered goroutine streaming non-ack Appends. The committer
// waits for the producers' cohort but not for the stream: one fsync
// covers nearly all of the cohort, no ack waits more than a few fsyncs,
// and Sync and Close return while the stream keeps the committer's
// queue growing.
func TestGroupCommitWaitsForAcksOnly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem := NewMemBackend()
	mem.SyncDelay = time.Millisecond
	// Deep and long enough that the stream neither blocks at QueueDepth
	// nor rotates a segment: both hold an ack back for their own reason.
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 1, QueueDepth: 1 << 14, SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)

	const producers, rounds = 8, 25
	type ackWait struct {
		d      time.Duration
		fsyncs int64 // lane fsyncs completed during the wait
	}
	waits := make([][]ackWait, producers)
	var wg, committed sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Append(WALRecord{Kind: WALWrite, Instance: 0, Object: "s", Value: Value(i)}); err != nil {
				return
			}
			runtime.Gosched()
		}
	}()
	for p := 0; p < producers; p++ {
		committed.Add(1)
		w.Hold()
		go func(p int) {
			defer committed.Done()
			defer w.Release()
			for i := 0; i < rounds; i++ {
				start, before := time.Now(), w.Stats().Fsyncs
				if err := w.AppendSync(WALRecord{Kind: WALCommit, Instance: int64(p + 1)}); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				waits[p] = append(waits[p], ackWait{time.Since(start), w.Stats().Fsyncs - before})
			}
		}(p)
	}
	returns := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return while the stream ran", what)
		}
	}
	returns("Sync", w.Sync)
	committed.Wait()
	fsyncs := w.Stats().Fsyncs
	returns("Close", w.Close)
	close(stop)
	wg.Wait()

	var all []ackWait
	for _, ws := range waits {
		all = append(all, ws...)
	}
	if len(all) != producers*rounds {
		t.Fatalf("%d of %d commits acked", len(all), producers*rounds)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	most := int64(0)
	for _, a := range all {
		most = max(most, a.fsyncs)
	}
	per := float64(len(all)) / float64(fsyncs)
	median := all[len(all)/2].d
	fsync := time.Duration(reg.Histogram("wal.shard00.fsync_seconds").Summary().Mean * float64(time.Second))
	t.Logf("%.1f commits per fsync; ack wait median %v, longest %v spanning %d fsyncs; fsync %v",
		per, median, all[len(all)-1].d, most, fsync)
	if per < 7 {
		t.Errorf("%d commits over %d fsyncs = %.1f per fsync, want >= 7", len(all), fsyncs, per)
	}
	if most > 2 {
		t.Errorf("an ack waited out %d fsyncs, want <= 2", most)
	}
	// The stream must not set the cohort's pace: a committer that waited
	// for every frame would wait until the stream filled the queue.
	if median > 2*fsync {
		t.Errorf("median ack wait %v, more than 2 fsyncs of %v", median, fsync)
	}
}

// syncedBackend is a MemBackend that remembers, per segment, the
// prefix of written bytes the last completed Sync made durable — what
// a power cut at this instant would keep.
type syncedBackend struct {
	*MemBackend
	mu   sync.Mutex
	segs map[[2]int]*syncedSegment // (lane, index) -> segment
}

type syncedSegment struct {
	SegmentFile
	b      *syncedBackend
	buf    []byte
	synced int
}

func (b *syncedBackend) Create(lane, index int) (SegmentFile, error) {
	f, err := b.MemBackend.Create(lane, index)
	if err != nil {
		return nil, err
	}
	s := &syncedSegment{SegmentFile: f, b: b}
	b.mu.Lock()
	b.segs[[2]int{lane, index}] = s
	b.mu.Unlock()
	return s, nil
}

func (s *syncedSegment) Write(p []byte) (int, error) {
	s.b.mu.Lock()
	s.buf = append(s.buf, p...)
	s.b.mu.Unlock()
	return s.SegmentFile.Write(p)
}

func (s *syncedSegment) Sync() error {
	s.b.mu.Lock()
	n := len(s.buf)
	s.b.mu.Unlock()
	if err := s.SegmentFile.Sync(); err != nil {
		return err
	}
	s.b.mu.Lock()
	s.synced = n
	s.b.mu.Unlock()
	return nil
}

// durable reports whether the lane's synced prefixes hold instance's
// commit record.
func (b *syncedBackend) durable(lane int, instance int64) bool {
	b.mu.Lock()
	var prefixes [][]byte
	for k, s := range b.segs {
		if k[0] == lane {
			prefixes = append(prefixes, append([]byte(nil), s.buf[:s.synced]...))
		}
	}
	b.mu.Unlock()
	for _, p := range prefixes {
		_, recs, _, err := ScanSegment(bytes.NewReader(p))
		if err != nil {
			return false
		}
		for _, r := range recs {
			if r.Rec.Kind == WALCommit && r.Rec.Instance == instance {
				return true
			}
		}
	}
	return false
}

// TestShardedWALAckImpliesDurable checks the AppendSync contract at the
// moment it returns: acked ⇒ durable. Concurrent writers on four
// rotating lanes with a simulated fsync cost; every nil AppendSync must
// find its commit frame inside its lane's synced prefix.
func TestShardedWALAckImpliesDurable(t *testing.T) {
	mem := NewMemBackend()
	mem.SyncDelay = 200 * time.Microsecond
	b := &syncedBackend{MemBackend: mem, segs: map[[2]int]*syncedSegment{}}
	w, err := NewShardedWAL(b, SegmentedOptions{Shards: 4, SegmentBytes: 1024, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const writers, txns = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				id := int64(g*1000 + i + 1)
				if err := w.Append(WALRecord{Kind: WALBegin, Instance: id}); err != nil {
					t.Errorf("begin %d: %v", id, err)
					return
				}
				if err := w.Append(WALRecord{Kind: WALWrite, Instance: id, Object: fmt.Sprintf("t%d", id), Value: Value(id)}); err != nil {
					t.Errorf("write %d: %v", id, err)
					return
				}
				if err := w.AppendSync(WALRecord{Kind: WALCommit, Instance: id}); err != nil {
					t.Errorf("commit %d: %v", id, err)
					return
				}
				if lane := w.router.ShardID(id); !b.durable(lane, id) {
					t.Errorf("commit %d acked before lane %d synced its frame", id, lane)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("1 KiB segments never rotated: the sealed-segment path went unchecked")
	}
}

// gatedBackend is a syncedBackend whose lane-0 segments park in Sync
// while the gate is shut: a device that has stopped acknowledging.
type gatedBackend struct {
	*syncedBackend
	mu   sync.Mutex
	gate chan struct{} // non-nil while shut
}

type gatedSegment struct {
	SegmentFile
	b *gatedBackend
}

func (b *gatedBackend) Create(lane, index int) (SegmentFile, error) {
	f, err := b.syncedBackend.Create(lane, index)
	if err != nil || lane != 0 {
		return f, err
	}
	return gatedSegment{SegmentFile: f, b: b}, nil
}

func (s gatedSegment) Sync() error {
	s.b.mu.Lock()
	gate := s.b.gate
	s.b.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return s.SegmentFile.Sync()
}

func (b *gatedBackend) shut() {
	b.mu.Lock()
	b.gate = make(chan struct{})
	b.mu.Unlock()
}

func (b *gatedBackend) open() {
	b.mu.Lock()
	if b.gate != nil {
		close(b.gate)
		b.gate = nil
	}
	b.mu.Unlock()
}

// written reports whether the lane's written bytes — what SegmentSet
// would hand recovery — hold instance's commit record.
func written(t *testing.T, mem *MemBackend, lane int, instance int64) bool {
	t.Helper()
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range set.Shards[lane] {
		_, recs, _, err := ScanSegment(bytes.NewReader(seg))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Rec.Kind == WALCommit && r.Rec.Instance == instance {
				return true
			}
		}
	}
	return false
}

// TestCommitFramesDurableInGSNOrder pins the cross-lane ordering rule:
// a commit frame reaches the device only after the previous commit
// frame, on whichever lane, is durable. c1 goes to lane 0, whose fsync
// is gated shut; c2 goes to lane 1 afterwards. Without the rule lane 1
// writes and acks c2 at once, and a crash then recovers c2 without c1.
// A failed commit frame fails every later one, queued on its own lane
// or enqueued after it failed.
func TestCommitFramesDurableInGSNOrder(t *testing.T) {
	setup := func(t *testing.T) (*ShardedWAL, *gatedBackend, int64, int64, <-chan error, <-chan error) {
		mem := NewMemBackend()
		b := &gatedBackend{syncedBackend: &syncedBackend{MemBackend: mem, segs: map[[2]int]*syncedSegment{}}}
		w, err := NewShardedWAL(b, SegmentedOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		id1, id2 := laneInstance(w, 0, 1), laneInstance(w, 1, 1)
		b.shut()
		ack1, err := w.AppendAck(WALRecord{Kind: WALCommit, Instance: id1})
		if err != nil {
			t.Fatal(err)
		}
		ack2, err := w.AppendAck(WALRecord{Kind: WALCommit, Instance: id2})
		if err != nil {
			t.Fatal(err)
		}
		// Give lane 1's committer ample time to (wrongly) write c2.
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if written(t, mem, 1, id2) {
				t.Fatal("c2's commit frame was written while c1's lane had not synced")
			}
		}
		select {
		case err := <-ack2:
			t.Fatalf("c2 acked (%v) while c1 was not durable", err)
		default:
		}
		return w, b, id1, id2, ack1, ack2
	}

	t.Run("release", func(t *testing.T) {
		w, b, id1, id2, ack1, ack2 := setup(t)
		b.open()
		select {
		case err := <-ack2:
			if err != nil {
				t.Fatalf("c2 ack: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("c2 never acked after lane 0 synced")
		}
		select {
		case err := <-ack1:
			if err != nil {
				t.Fatalf("c1 ack: %v", err)
			}
		default:
			t.Fatal("c2 acked before c1")
		}
		if !b.durable(0, id1) || !b.durable(1, id2) {
			t.Fatal("acked commits missing from their lanes' synced prefixes")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		w, b, id1, id2, ack1, ack2 := setup(t)
		defer w.Close() //nolint:errcheck // crash latched, error expected
		defer b.open()  // a failing check must not leave Close parked on lane 0
		// c3 queues on lane 1 behind held c2, with a same-lane
		// predecessor: c2's failure must reach it too.
		id3 := laneInstance(w, 1, id2+1)
		ack3, err := w.AppendAck(WALRecord{Kind: WALCommit, Instance: id3})
		if err != nil {
			t.Fatal(err)
		}
		w.SetInjector(fault.New(1, fault.MustParseSpec("wal.crash:1")))
		if err := w.Append(WALRecord{Kind: WALBegin, Instance: laneInstance(w, 0, id1+1)}); !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("crash append returned %v, want ErrCrash", err)
		}
		select {
		case err := <-ack2:
			if !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("held c2 acked %v, want ErrCrash", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("held c2 still waits on lane 0 after it latched a crash")
		}
		select {
		case err := <-ack3:
			if err == nil {
				t.Fatal("c3 acked nil behind failed c2")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("c3 never acked after c2 failed")
		}
		if written(t, b.MemBackend, 1, id3) {
			t.Fatal("c3's commit frame was written behind failed c2")
		}
		b.open()
		if err := <-ack1; err != nil {
			t.Fatalf("c1, enqueued before the crash, acked %v", err)
		}
	})

	// A predecessor that failed before the next commit frame is enqueued
	// fails that frame too, whichever lane it is on.
	t.Run("failed-predecessor", func(t *testing.T) {
		mem := NewMemBackend()
		w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close() //nolint:errcheck // crash latched, error expected
		id1, id2 := laneInstance(w, 0, 1), laneInstance(w, 1, 1)
		w.SetInjector(fault.New(1, fault.MustParseSpec("wal.crash:1")))
		ack1, err := w.AppendAck(WALRecord{Kind: WALCommit, Instance: id1})
		if !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("c1 append returned %v, want ErrCrash", err)
		}
		if err := <-ack1; !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("c1 acked %v, want ErrCrash", err)
		}
		w.SetInjector(nil)
		ack2, err := w.AppendAck(WALRecord{Kind: WALCommit, Instance: id2})
		if err != nil {
			t.Fatalf("c2 append on a clean lane: %v", err)
		}
		if err := <-ack2; !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("c2 acked %v behind failed c1, want ErrCrash", err)
		}
		if written(t, mem, 1, id2) {
			t.Fatal("c2's commit frame was written behind failed c1")
		}
	})
}

func logAsync(t testing.TB, w *ShardedWAL, id int64) {
	t.Helper()
	for _, rec := range []WALRecord{
		{Kind: WALBegin, Instance: id},
		{Kind: WALWrite, Instance: id, Object: "o", Value: Value(id)},
		{Kind: WALCommit, Instance: id},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
}

func TestShardedWALAppendAfterClose(t *testing.T) {
	w, err := NewShardedWAL(NewMemBackend(), SegmentedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	if err := w.Append(WALRecord{Kind: WALBegin, Instance: 1}); err == nil {
		t.Fatal("append on closed WAL succeeded")
	}
	if err := w.AppendSync(WALRecord{Kind: WALCommit, Instance: 1}); err == nil {
		t.Fatal("append-sync on closed WAL succeeded")
	}
}

// TestShardedWALInjectedTorn arms wal.torn on the first append: the
// caller sees the crash, the lane latches it, and recovery finds a
// torn tail with zero phantom commits.
func TestShardedWALInjectedTorn(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.SetInjector(fault.New(1, fault.MustParseSpec("wal.torn:1")))
	if err := w.Append(WALRecord{Kind: WALBegin, Instance: 1}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("torn append returned %v, want ErrCrash", err)
	}
	if err := w.Append(WALRecord{Kind: WALWrite, Instance: 1, Object: "x", Value: 1}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("append after crash returned %v, want latched ErrCrash", err)
	}
	if err := w.Err(); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("Err() = %v, want ErrCrash", err)
	}
	w.Close() //nolint:errcheck // crash latched, error expected
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := rep.FirstDamagedKind(TailTorn)
	if !ok || sh.Shard != 0 {
		t.Fatalf("want torn shard 0, got %+v (ok=%v)", sh, ok)
	}
	if rep.Committed != 0 || rep.Records != 0 {
		t.Fatalf("phantom records after torn first append: %s", rep)
	}
}

// TestShardedWALInjectedCorruptAndCrash covers the two remaining
// per-append points. wal.corrupt lies: the append succeeds, and the
// segment scan stops at the flipped frame with a corrupt tail.
// wal.crash dies at the frame boundary: the caller sees the crash, the
// lane latches it, nothing of the frame is written and the log
// recovers clean and empty.
func TestShardedWALInjectedCorruptAndCrash(t *testing.T) {
	recoverAfter := func(spec string) (*SegmentedReport, error) {
		t.Helper()
		mem := NewMemBackend()
		w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		w.SetInjector(fault.New(1, fault.MustParseSpec(spec)))
		appendErr := w.AppendSync(WALRecord{Kind: WALBegin, Instance: 1, Object: "x"})
		w.Close() //nolint:errcheck // a latched crash is the expected terminal state
		set, err := mem.SegmentSet()
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := RecoverSegmented(set, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep, appendErr
	}

	rep, err := recoverAfter("wal.corrupt:1")
	if err != nil {
		t.Fatalf("corrupted append returned %v: the disk lies, the log keeps running", err)
	}
	if sh, ok := rep.FirstDamagedKind(TailCorrupt); !ok || sh.Shard != 0 || rep.Records != 0 {
		t.Fatalf("want a corrupt tail on shard 0 and no records, got %s", rep)
	}

	rep, err = recoverAfter("wal.crash:1")
	if !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("crash append returned %v, want ErrCrash", err)
	}
	if !rep.Clean() || rep.Records != 0 {
		t.Fatalf("clean crash left something behind: %s", rep)
	}
}

// TestShardedWALGroupPartial arms wal.group.partial after one durable
// transaction: the second transaction's frame is cut mid-batch, the
// run crashes, and recovery keeps exactly the first transaction.
func TestShardedWALGroupPartial(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	logTxn(t, w, 1, "x", 10)
	w.SetInjector(fault.New(7, fault.MustParseSpec("wal.group.partial:1")))
	if err := w.Append(WALRecord{Kind: WALBegin, Instance: 2}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("partial append returned %v, want ErrCrash", err)
	}
	if err := w.Sync(); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("Sync() = %v, want latched ErrCrash", err)
	}
	w.Close() //nolint:errcheck // crash latched, error expected
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	st, rep, err := RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != 1 {
		t.Fatalf("recovered %d commits, want 1: %s", rep.Committed, rep)
	}
	if got := st.Snapshot()["x"]; got != 10 {
		t.Fatalf("x = %d after recovery, want 10", got)
	}
}

// TestShardedWALRotateCrash covers the crash between rotation and
// publish: the sealed segments survive, the half-created one stays
// unpublished (a .tmp file on disk), and recovery soundly ignores it —
// every acknowledged commit is recovered, nothing else.
func TestShardedWALRotateCrash(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, SegmentedOptions{Shards: 1, SegmentBytes: 160, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	logTxn(t, w, 1, "x", 10)
	w.SetInjector(fault.New(3, fault.MustParseSpec("wal.rotate.crash:1")))
	var crashErr error
	for i := 0; i < 100; i++ {
		rec := WALRecord{Kind: WALWrite, Instance: 2, Object: fmt.Sprintf("y%d", i), Value: Value(i)}
		if i == 0 {
			rec = WALRecord{Kind: WALBegin, Instance: 2}
		}
		if crashErr = w.AppendSync(rec); crashErr != nil {
			break
		}
	}
	if !errors.Is(crashErr, fault.ErrCrash) {
		t.Fatalf("rotation never crashed (last err %v)", crashErr)
	}
	w.Close() //nolint:errcheck // crash latched, error expected

	tmp, err := filepath.Glob(filepath.Join(dir, "shard-00", "*.tmp"))
	if err != nil || len(tmp) != 1 {
		t.Fatalf("want exactly one unpublished .tmp segment, got %v (err %v)", tmp, err)
	}
	set, err := ReadWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Unpublished != 1 {
		t.Fatalf("Unpublished = %d, want 1", set.Unpublished)
	}
	st, rep, err := RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		// The published chain is intact; only the unpublished segment
		// (and the unacknowledged suffix) is gone.
		t.Fatalf("recovery not clean after rotate crash: %s", rep)
	}
	if rep.Unpublished != 1 {
		t.Fatalf("report.Unpublished = %d, want 1", rep.Unpublished)
	}
	snap := st.Snapshot()
	if snap["x"] != 10 {
		t.Fatalf("acknowledged commit lost: x = %d", snap["x"])
	}
	if rep.Committed != 1 {
		t.Fatalf("recovered %d commits, want 1 (txn 2 never committed): %s", rep.Committed, rep)
	}
}

// TestShardedWALEmptyLogRecovers: a freshly opened log (headers only)
// must recover cleanly with zero records.
func TestShardedWALEmptyLogRecovers(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Shards) != 4 {
		t.Fatalf("want 4 published lanes, got %d", len(set.Shards))
	}
	st, rep, err := RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 0 {
		t.Fatalf("empty log: %s", rep)
	}
	if got := len(st.Snapshot()); got != 0 {
		t.Fatalf("empty log recovered %d objects", got)
	}
}
