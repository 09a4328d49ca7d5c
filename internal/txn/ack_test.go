package txn_test

// The Commit stage in two halves: Publish under the lifecycle lock,
// AwaitAck with no lock, Acknowledge under the lock again. These tests
// pin what the split owes: a Commit hook means the commit is durable
// (acked ⇒ durable, every source included), and the ack wait never
// holds the lifecycle lock.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// TestAckImpliesDurableConcurrent runs banking on the goroutine driver
// (four stripes) over the log with a simulated fsync cost while a background
// goroutine snapshots the written log every ~200µs. Every snapshot is a
// crash image: it must recover to a store that conserves balances, with
// at least as many commits as Commit hooks had fired before it was
// taken.
func TestAckImpliesDurableConcurrent(t *testing.T) {
	w, err := workload.Banking(workload.BankingConfig{
		Families: 8, AccountsPerFamily: 3, Customers: 48,
		CreditAudits: 6, FamiliesPerAudit: 2, BankAudits: 1,
		CrossingAudits: true, InitialBalance: 100,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemBackend()
	mem.SyncDelay = 200 * time.Microsecond
	wal, err := storage.NewShardedWAL(mem, storage.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close() //nolint:errcheck // closed explicitly below

	var acked atomic.Int64
	check := func(what string) int {
		n := acked.Load()
		set, err := mem.SegmentSet()
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return -1
		}
		st, rep, err := storage.RecoverSegmented(set, w.Initial)
		if err != nil {
			t.Errorf("%s: recover: %v", what, err)
			return -1
		}
		if err := w.Invariant(st.Snapshot()); err != nil {
			t.Errorf("%s: %v (%s)", what, err, rep)
			return -1
		}
		if int64(rep.Committed) < n {
			t.Errorf("%s: recovered %d commits, but %d Commit hooks had fired", what, rep.Committed, n)
			return -1
		}
		return rep.Committed
	}
	stop := make(chan struct{})
	snaps := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if check("snapshot") < 0 {
				return
			}
			snaps++
			time.Sleep(200 * time.Microsecond)
		}
	}()
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
		Seed: 1, MPL: 8, Shards: 4, Concurrent: true, WAL: wal,
		Hooks: txn.Hooks{Commit: func(*txn.Instance) { acked.Add(1) }},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkReleased(t, wal)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if got := check("closed log"); got != len(w.Programs) || res.Committed != len(w.Programs) {
		t.Fatalf("closed log recovers %d commits, run committed %d of %d", got, res.Committed, len(w.Programs))
	}
	if snaps == 0 {
		t.Fatal("no snapshot was taken during the run")
	}
	t.Logf("%d crash images checked", snaps)
}

// gatedBackend is a MemBackend whose Sync parks while the gate is shut:
// a device that has stopped acknowledging.
type gatedBackend struct {
	*storage.MemBackend
	mu   sync.Mutex
	gate chan struct{} // non-nil while shut
}

type gatedSegment struct {
	storage.SegmentFile
	b *gatedBackend
}

func (b *gatedBackend) Create(lane, index int) (storage.SegmentFile, error) {
	f, err := b.MemBackend.Create(lane, index)
	if err != nil {
		return nil, err
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

func (b *gatedBackend) setGate(shut bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case shut && b.gate == nil:
		b.gate = make(chan struct{})
	case !shut && b.gate != nil:
		close(b.gate)
		b.gate = nil
	}
}

// handoffProto grants every request except program 2's first
// incarnation, which blocks until program 1 has committed in the
// protocol and is then refused once: program 2's next incarnation is
// admitted, executes and publishes strictly after program 1 published.
type handoffProto struct {
	mu            sync.Mutex
	prog          map[int64]core.TxnID
	committed     map[core.TxnID]bool
	refused       bool
	admittedAfter bool // program 2 began after program 1 committed
	acked         *atomic.Int64
	ackedAtP2     int64
	published     chan struct{} // closed when program 2 commits in the protocol
}

func (p *handoffProto) Name() string { return "handoff" }

func (p *handoffProto) Begin(inst int64, t *core.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prog[inst] = t.ID
	if t.ID == 2 && p.committed[1] {
		p.admittedAfter = true
	}
}

func (p *handoffProto) Request(req sched.OpRequest) sched.Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	if req.Program.ID != 2 || p.refused {
		return sched.Grant
	}
	if !p.committed[1] {
		return sched.Block
	}
	p.refused = true
	return sched.Abort
}

func (p *handoffProto) CanCommit(int64) bool { return true }

func (p *handoffProto) Commit(inst int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.prog[inst]
	p.committed[id] = true
	if id == 2 {
		p.ackedAtP2 = p.acked.Load()
		close(p.published)
	}
}

func (p *handoffProto) Abort(int64) {}

// TestAckWaitHoldsNoLock gates the log's fsync shut once the run starts.
// Program 1 publishes and waits for an ack that cannot come; program 2
// must still be admitted, execute and publish meanwhile. An ack wait
// under the lifecycle lock would stop the world until the gate opens.
func TestAckWaitHoldsNoLock(t *testing.T) {
	b := &gatedBackend{MemBackend: storage.NewMemBackend()}
	wal, err := storage.NewShardedWAL(b, storage.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close() //nolint:errcheck // closed explicitly below
	var acked atomic.Int64
	p := &handoffProto{
		prog: map[int64]core.TxnID{}, committed: map[core.TxnID]bool{},
		acked: &acked, published: make(chan struct{}),
	}
	r, err := txn.NewConcurrent(txn.Config{
		Protocol:    p,
		Programs:    []*core.Transaction{core.T(1, core.W("x")), core.T(2, core.R("y"), core.W("y"))},
		MPL:         2,
		MaxRestarts: 1 << 20,
		Watchdog:    -1,
		WAL:         wal,
		Hooks:       txn.Hooks{Commit: func(*txn.Instance) { acked.Add(1) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.setGate(true)
	done := make(chan error, 1)
	go func() {
		res, err := r.Run()
		if err == nil && res.Committed != 2 {
			t.Errorf("committed %d of 2", res.Committed)
		}
		done <- err
	}()
	select {
	case <-p.published:
	case <-time.After(10 * time.Second):
		b.setGate(false)
		<-done
		t.Fatal("program 2 did not publish while program 1's ack was pending")
	}
	b.setGate(false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkReleased(t, wal)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.admittedAfter {
		t.Error("program 2 was never admitted after program 1 published")
	}
	if p.ackedAtP2 != 0 {
		t.Errorf("%d Commit hooks fired before program 2 published; want 0 (the gate was shut)", p.ackedAtP2)
	}
}

// TestGroupCommitCoversCohort runs BenchmarkConcurrentCommitWAL's shape
// once on one processor. An ack wakes all eight clients, and the first
// to publish readies the lane committer ahead of the other seven; a
// committer that drains at once fsyncs a one-commit batch and splits
// the clients into two cohorts that alternate fsyncs (0.26 fsyncs per
// commit). Waiting for the cohort covers each round with one fsync.
func TestGroupCommitCoversCohort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wal := newCommitWAL(t)
	commits := runCommitWAL(t, commitWALBanking(t), wal)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if commits == 0 {
		t.Fatal("no commits")
	}
	fsyncs := wal.Stats().Fsyncs
	if per := float64(fsyncs) / float64(commits); per > 0.2 {
		t.Errorf("%d fsyncs for %d commits = %.3f per commit, want <= 0.2", fsyncs, commits, per)
	}
}
