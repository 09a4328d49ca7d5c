package txn_test

// Group commit counts its cohort: the goroutine driver holds the log
// while each worker runs towards its next commit record, and a lane
// fsyncs once none is running. These tests pin the two sides of that
// rule: a closed loop shares one fsync per round, and a worker that
// waits on another worker always gives its hold up, or a lane never
// drains and the run hangs.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// ackClock notes when each commit record was appended, on the clock
// and in completed fsyncs, so the Commit hook can read how long its ack
// took.
type ackClock struct {
	*storage.ShardedWAL
	mu   sync.Mutex
	sent map[int64]ackStart
}

type ackStart struct {
	at     time.Time
	fsyncs int64
}

func (c *ackClock) AppendAck(rec storage.WALRecord) (<-chan error, error) {
	c.mu.Lock()
	c.sent[rec.Instance] = ackStart{time.Now(), c.Stats().Fsyncs}
	c.mu.Unlock()
	return c.ShardedWAL.AppendAck(rec)
}

// TestConcurrentCommitCohort runs BenchmarkConcurrentCommitWAL's shape:
// banking under RSGT at MPL 8 over one lane with a 1 ms simulated
// fsync. One fsync covers a round of the closed loop, so the run takes
// at most 0.16 fsyncs per commit, and the median commit is acked by the
// first fsync that completes after its append: its ack wait spans less
// than 1.5 fsyncs. (Counted in fsyncs, the wait does not depend on how
// fast the workers run; on the clock the race detector alone stretches
// a round's publishes over most of an fsync.)
func TestConcurrentCommitCohort(t *testing.T) {
	w := commitWALBanking(t)
	wal := newCommitWAL(t)
	sink := &ackClock{ShardedWAL: wal, sent: map[int64]ackStart{}}
	var waits []time.Duration
	var spans []int64
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
		Seed: 1, MPL: 8, Concurrent: true, WAL: sink,
		Hooks: txn.Hooks{Commit: func(st *txn.Instance) {
			sink.mu.Lock()
			s := sink.sent[st.ID]
			waits = append(waits, time.Since(s.at))
			spans = append(spans, wal.Stats().Fsyncs-s.fsyncs)
			sink.mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(w.Programs) || len(waits) != res.Committed {
		t.Fatalf("%d of %d programs committed, %d acks timed", res.Committed, len(w.Programs), len(waits))
	}
	fsyncs := wal.Stats().Fsyncs
	slices.Sort(waits)
	slices.Sort(spans)
	per := float64(fsyncs) / float64(res.Committed)
	t.Logf("%d commits over %d fsyncs = %.3f per commit; ack wait median %v (%d fsyncs), longest %v (%d fsyncs); %d commit waits, %d restarts",
		res.Committed, fsyncs, per, waits[len(waits)/2], spans[len(spans)/2], waits[len(waits)-1], spans[len(spans)-1], res.CommitWaits, res.Restarts)
	if per > 0.16 {
		t.Errorf("%.3f fsyncs per commit, want <= 0.16", per)
	}
	if median := spans[len(spans)/2]; median >= 2 {
		t.Errorf("median ack wait spans %d fsyncs, want under 1.5", median)
	}
}

// TestConcurrentCommitJoinsCohort runs the banking shape of the
// benchmark's whole-stack workload (256 customers with their audits,
// RSGT, MPL 8, one lane, 1 ms fsync) over four program sets and counts
// the commits that saw two fsyncs complete between Admit and Commit:
// ones that missed the cohort they ran in. A worker woken by a commit
// it waited on, or restarting after an abort, must be counted running
// before the lane can drain, so at most one commit in 200 misses. When
// such a worker took its hold back only once it ran, about one in 60
// missed.
func TestConcurrentCommitJoinsCohort(t *testing.T) {
	commits, missed, restarts, waits := 0, 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		w, err := workload.Banking(workload.BankingConfig{
			Families: 16, AccountsPerFamily: 3, Customers: 256,
			CreditAudits: 32, FamiliesPerAudit: 2, BankAudits: 4,
			CrossingAudits: true, InitialBalance: 100,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		wal := newCommitWAL(t)
		var mu sync.Mutex
		admitted := map[int64]int64{}
		res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{
			Seed: seed, MPL: 8, Concurrent: true, WAL: wal,
			Hooks: txn.Hooks{
				Admit: func(st *txn.Instance) {
					mu.Lock()
					admitted[st.ID] = wal.Stats().Fsyncs
					mu.Unlock()
				},
				Commit: func(st *txn.Instance) {
					mu.Lock()
					if wal.Stats().Fsyncs-admitted[st.ID] >= 2 {
						missed++
					}
					mu.Unlock()
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		commits += res.Committed
		restarts += res.Restarts
		waits += res.CommitWaits
	}
	t.Logf("%d of %d commits missed their cohort (%d restarts, %d commit waits)", missed, commits, restarts, waits)
	if missed*200 > commits {
		t.Errorf("%d of %d commits missed their cohort, want at most 1 in 200", missed, commits)
	}
}

// TestConcurrentCommitLiveness runs banking under RSGT over 4 and 16
// lanes three times: under a 0.4-rate injected abort storm, which
// restarts programs and degrades the admission shedder to MPL 1; with
// each commit held back until a younger instance begins and a fifth of
// the grants delayed by 0.5 ms, so that instances overlap and finished
// ones wait on the commit queue; and with the same delays under a 5 ms
// deadline, so that workers exit while others wait for acks. Every
// place a worker waits on another, or stops, must give its hold on the
// log up: a leaked hold leaves a lane with an awaited frame that never
// drains, and the run hangs (a bound of 30 s per run turns that into a
// failure).
func TestConcurrentCommitLiveness(t *testing.T) {
	storm, err := workload.Banking(workload.BankingConfig{
		Families: 16, AccountsPerFamily: 3, Customers: 64,
		CreditAudits: 8, FamiliesPerAudit: 2,
		CrossingAudits: true, InitialBalance: 100,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bank := commitWALBanking(t)
	for _, lanes := range []int{4, 16} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			res, err := runLiveness(t, storm, sched.NewRSGT(storm.Oracle), lanes, workload.RunOptions{
				Faults: fault.New(1, fault.MustParseSpec("txn.abort:0.4")),
			})
			if err != nil {
				t.Fatalf("storm: %v", err)
			}
			if res.Restarts == 0 || res.LoadSheds == 0 {
				t.Errorf("storm: %d restarts and %d sheds, want both", res.Restarts, res.LoadSheds)
			}
			res, err = runLiveness(t, bank, &afterNext{Protocol: sched.NewRSGT(bank.Oracle)}, lanes, workload.RunOptions{
				Faults: fault.New(1, fault.MustParseSpec("sched.grant.delay:0.2")),
			})
			if err != nil {
				t.Fatalf("commit waits: %v", err)
			}
			if res.CommitWaits < res.Committed/8 {
				t.Errorf("%d commit waits for %d commits, want one for every eighth commit at least", res.CommitWaits, res.Committed)
			}
			_, err = runLiveness(t, bank, sched.NewRSGT(bank.Oracle), lanes, workload.RunOptions{
				Faults:  fault.New(1, fault.MustParseSpec("sched.grant.delay:0.2")),
				Timeout: 5 * time.Millisecond,
			})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("deadline: run ended with %v, want %v", err, context.DeadlineExceeded)
			}
		})
	}
}

// afterNext lets an instance commit only once a younger instance has
// begun, or while it is the only one active, so most finished
// instances wait on the commit queue. The driver calls these methods
// under its exclusive state lock.
type afterNext struct {
	sched.Protocol
	newest int64
	active int
}

func (p *afterNext) Begin(id int64, t *core.Transaction) {
	p.newest = max(p.newest, id)
	p.active++
	p.Protocol.Begin(id, t)
}

func (p *afterNext) CanCommit(id int64) bool {
	return (p.newest > id || p.active == 1) && p.Protocol.CanCommit(id)
}

func (p *afterNext) Commit(id int64) {
	p.active--
	p.Protocol.Commit(id)
}

func (p *afterNext) Abort(id int64) {
	p.active--
	p.Protocol.Abort(id)
}

// runLiveness runs w at MPL 8 under opts over a log of the given lanes
// with a 1 ms simulated fsync, and fails the test if the run has not
// ended within 30 s. A run that ends without error committed every
// program.
func runLiveness(t *testing.T, w *workload.Workload, p sched.Protocol, lanes int, opts workload.RunOptions) (*txn.Result, error) {
	t.Helper()
	mem := storage.NewMemBackend()
	mem.SyncDelay = time.Millisecond
	wal, err := storage.NewShardedWAL(mem, storage.SegmentedOptions{Shards: lanes})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close() //nolint:errcheck // closed explicitly below
	opts.Seed, opts.MPL, opts.Shards, opts.Concurrent, opts.WAL = 1, 8, lanes, true, wal
	type outcome struct {
		res *txn.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, _, err := w.RunWith(p, opts)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not end in 30 s: a worker kept its hold on the log while waiting")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if out.err != nil {
		return nil, out.err
	}
	res := out.res
	t.Logf("%d commits, %d restarts, %d commit waits, %d sheds (effective MPL down to %d), %d fsyncs",
		res.Committed, res.Restarts, res.CommitWaits, res.LoadSheds, res.MinEffectiveMPL, wal.Stats().Fsyncs)
	if res.Committed != len(w.Programs) {
		t.Fatalf("%d of %d programs committed", res.Committed, len(w.Programs))
	}
	return res, nil
}
