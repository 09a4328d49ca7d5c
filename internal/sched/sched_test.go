package sched_test

import (
	"testing"

	"relser/internal/core"
	"relser/internal/paperfig"
	"relser/internal/sched"
	"relser/internal/workload"
)

// replay feeds a complete schedule through a non-blocking protocol
// (SGT, RSGT, NoCC) in order, returning the decision sequence. Begin is
// called for every transaction first; Commit after a transaction's
// last granted operation.
func replay(t *testing.T, p sched.Protocol, s *core.Schedule) []sched.Decision {
	t.Helper()
	ts := s.Set()
	for _, tx := range ts.Txns() {
		p.Begin(int64(tx.ID), tx)
	}
	executed := make(map[core.TxnID]int)
	var out []sched.Decision
	for pos := 0; pos < s.Len(); pos++ {
		op := s.At(pos)
		tx := ts.Txn(op.Txn)
		req := sched.OpRequest{Instance: int64(op.Txn), Program: tx, Seq: executed[op.Txn], Op: op}
		d := p.Request(req)
		out = append(out, d)
		if d == sched.Grant {
			executed[op.Txn]++
			if executed[op.Txn] == tx.Len() {
				if !p.CanCommit(int64(op.Txn)) {
					t.Fatalf("CanCommit false for finished T%d", op.Txn)
				}
				p.Commit(int64(op.Txn))
			}
		} else {
			p.Abort(int64(op.Txn))
			return out
		}
	}
	return out
}

func allGrant(ds []sched.Decision) bool {
	for _, d := range ds {
		if d != sched.Grant {
			return false
		}
	}
	return true
}

func TestNoCCGrantsEverything(t *testing.T) {
	inst := paperfig.Figure1()
	for _, name := range inst.Names {
		if !allGrant(replay(t, sched.NewNoCC(), inst.Schedules[name])) {
			t.Errorf("NoCC rejected an operation of %s", name)
		}
	}
}

func TestRSGTAdmitsPaperSchedules(t *testing.T) {
	// All three Figure 1 schedules are relatively serializable, so
	// RSGT must admit every operation in order.
	inst := paperfig.Figure1()
	oracle := sched.SpecOracle{Spec: inst.Spec}
	for _, name := range inst.Names {
		ds := replay(t, sched.NewRSGT(oracle), inst.Schedules[name])
		if !allGrant(ds) {
			t.Errorf("RSGT rejected an operation of %s: %v", name, ds)
		}
	}
}

func TestRSGTRejectsUnderAbsoluteAtomicity(t *testing.T) {
	// Srs is not conflict serializable; under the absolute oracle the
	// RSG must close a cycle at some prefix and abort.
	inst := paperfig.Figure1()
	ds := replay(t, sched.NewRSGT(sched.AbsoluteOracle{}), inst.Schedules["Srs"])
	if allGrant(ds) {
		t.Fatal("RSGT with absolute atomicity admitted a non-serializable schedule")
	}
	if ds[len(ds)-1] != sched.Abort {
		t.Errorf("expected trailing Abort, got %v", ds)
	}
}

func TestRSGTMatchesOfflineTheoremOnFigure2(t *testing.T) {
	// Figure 2's S1 is relatively serializable (RSG acyclic), so RSGT
	// admits it even though it is not relatively serial.
	inst := paperfig.Figure2()
	ds := replay(t, sched.NewRSGT(sched.SpecOracle{Spec: inst.Spec}), inst.Schedules["S1"])
	if !allGrant(ds) {
		t.Errorf("RSGT should admit S1 (Theorem 1): %v", ds)
	}
}

func TestSGTAdmitsSerializableOrder(t *testing.T) {
	inst := paperfig.Figure2()
	ds := replay(t, sched.NewSGT(), inst.Schedules["S1"])
	if !allGrant(ds) {
		t.Errorf("SGT should admit the conflict-serializable S1: %v", ds)
	}
}

func TestSGTRejectsNonSerializable(t *testing.T) {
	inst := paperfig.Figure1()
	ds := replay(t, sched.NewSGT(), inst.Schedules["Srs"])
	if allGrant(ds) {
		t.Fatal("SGT admitted the non-conflict-serializable Srs")
	}
}

func TestSGTPruningKeepsSourcesHarmless(t *testing.T) {
	// T1 commits before T2 touches anything; pruning must not forget
	// that T1's writes still order T2 after it (no false aborts, no
	// crash).
	t1 := core.T(1, core.W("x"))
	t2 := core.T(2, core.R("x"), core.W("x"))
	p := sched.NewSGT()
	p.Begin(1, t1)
	if d := p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}); d != sched.Grant {
		t.Fatal(d)
	}
	p.Commit(1)
	p.Begin(2, t2)
	for seq := 0; seq < 2; seq++ {
		if d := p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: seq, Op: t2.Op(seq)}); d != sched.Grant {
			t.Fatalf("op %d: %v", seq, d)
		}
	}
	p.Commit(2)
}

func TestS2PLGrantAndConflictBlock(t *testing.T) {
	t1 := core.T(1, core.W("x"))
	t2 := core.T(2, core.R("x"))
	p := sched.NewS2PL()
	p.Begin(1, t1)
	p.Begin(2, t2)
	if d := p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}); d != sched.Grant {
		t.Fatalf("writer: %v", d)
	}
	if d := p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}); d != sched.Block {
		t.Fatalf("reader under write lock: %v", d)
	}
	p.Commit(1)
	if d := p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}); d != sched.Grant {
		t.Fatalf("reader after release: %v", d)
	}
	p.Commit(2)
}

func TestS2PLSharedReadersThenWriterBlocks(t *testing.T) {
	t1 := core.T(1, core.R("x"))
	t2 := core.T(2, core.R("x"))
	t3 := core.T(3, core.W("x"))
	p := sched.NewS2PL()
	for id, tx := range map[int64]*core.Transaction{1: t1, 2: t2, 3: t3} {
		p.Begin(id, tx)
	}
	if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}) != sched.Grant {
		t.Fatal("reader 1")
	}
	if p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}) != sched.Grant {
		t.Fatal("reader 2 should share")
	}
	if p.Request(sched.OpRequest{Instance: 3, Program: t3, Seq: 0, Op: t3.Op(0)}) != sched.Block {
		t.Fatal("writer should block under shared lock")
	}
	p.Commit(1)
	if p.Request(sched.OpRequest{Instance: 3, Program: t3, Seq: 0, Op: t3.Op(0)}) != sched.Block {
		t.Fatal("writer still blocked by reader 2")
	}
	p.Commit(2)
	if p.Request(sched.OpRequest{Instance: 3, Program: t3, Seq: 0, Op: t3.Op(0)}) != sched.Grant {
		t.Fatal("writer after all releases")
	}
}

func TestS2PLDeadlockAbortsRequester(t *testing.T) {
	t1 := core.T(1, core.W("x"), core.W("y"))
	t2 := core.T(2, core.W("y"), core.W("x"))
	p := sched.NewS2PL()
	p.Begin(1, t1)
	p.Begin(2, t2)
	if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}) != sched.Grant {
		t.Fatal("T1 locks x")
	}
	if p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}) != sched.Grant {
		t.Fatal("T2 locks y")
	}
	if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 1, Op: t1.Op(1)}) != sched.Block {
		t.Fatal("T1 should wait for y")
	}
	// T2 requesting x closes the waits-for cycle: deadlock, abort.
	if d := p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 1, Op: t2.Op(1)}); d != sched.Abort {
		t.Fatalf("expected deadlock abort, got %v", d)
	}
	p.Abort(2)
	// T1 can now proceed.
	if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 1, Op: t1.Op(1)}) != sched.Grant {
		t.Fatal("T1 after victim release")
	}
}

func TestS2PLUpgrade(t *testing.T) {
	t1 := core.T(1, core.R("x"), core.W("x"))
	p := sched.NewS2PL()
	p.Begin(1, t1)
	if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}) != sched.Grant {
		t.Fatal("read lock")
	}
	if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 1, Op: t1.Op(1)}) != sched.Grant {
		t.Fatal("sole reader should upgrade to write")
	}
}

// donationProtocols are the two protocols on the lock-donation core.
// The oracles of the tests below are observer-independent, so their
// lock decisions must match.
var donationProtocols = []struct {
	name string
	make func(sched.AtomicityOracle) sched.Protocol
}{
	{"altruistic", func(o sched.AtomicityOracle) sched.Protocol { return sched.NewAltruistic(o) }},
	{"ral", func(o sched.AtomicityOracle) sched.Protocol { return sched.NewRAL(o) }},
}

// firstUnitOfT1 cuts T1 after its first two operations, relative to
// every observer, and leaves every other transaction one unit.
var firstUnitOfT1 = sched.OracleFunc(func(a, _ *core.Transaction) []int {
	if a.ID == 1 {
		return []int{2}
	}
	return nil
})

func TestAltruisticDonationAllowsEarlyAccess(t *testing.T) {
	// Long transaction sweeps x then y with a unit boundary after each
	// r/w pair; once it moves past x, a short transaction may lock x
	// even though the long transaction still holds (donated) it.
	long := core.T(1, core.R("x"), core.W("x"), core.R("y"), core.W("y"))
	short := core.T(2, core.R("x"), core.W("x"))
	for _, pc := range donationProtocols {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.make(firstUnitOfT1)
			p.Begin(1, long)
			p.Begin(2, short)
			for seq := 0; seq < 2; seq++ { // long finishes unit [r x, w x]
				if d := p.Request(sched.OpRequest{Instance: 1, Program: long, Seq: seq, Op: long.Op(seq)}); d != sched.Grant {
					t.Fatalf("long op %d: %v", seq, d)
				}
			}
			// Short may now take x (donated) ...
			if d := p.Request(sched.OpRequest{Instance: 2, Program: short, Seq: 0, Op: short.Op(0)}); d != sched.Grant {
				t.Fatalf("short read of donated x: %v", d)
			}
			if d := p.Request(sched.OpRequest{Instance: 2, Program: short, Seq: 1, Op: short.Op(1)}); d != sched.Grant {
				t.Fatalf("short write of donated x: %v", d)
			}
			// ... but cannot commit before its donor.
			if p.CanCommit(2) {
				t.Fatal("wake member must wait for donor's commit")
			}
			for seq := 2; seq < 4; seq++ {
				if d := p.Request(sched.OpRequest{Instance: 1, Program: long, Seq: seq, Op: long.Op(seq)}); d != sched.Grant {
					t.Fatalf("long op %d: %v", seq, d)
				}
			}
			p.Commit(1)
			if !p.CanCommit(2) {
				t.Fatal("wake dissolves after donor commit")
			}
			p.Commit(2)
		})
	}
}

func TestAltruisticWakeDiscipline(t *testing.T) {
	// A wake member may not jump ahead of its donor onto objects the
	// donor still needs.
	long := core.T(1, core.R("x"), core.W("x"), core.R("y"), core.W("y"))
	short := core.T(2, core.R("x"), core.R("y"))
	for _, pc := range donationProtocols {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.make(firstUnitOfT1)
			p.Begin(1, long)
			p.Begin(2, short)
			for seq := 0; seq < 2; seq++ {
				if p.Request(sched.OpRequest{Instance: 1, Program: long, Seq: seq, Op: long.Op(seq)}) != sched.Grant {
					t.Fatal("long unit 1")
				}
			}
			if p.Request(sched.OpRequest{Instance: 2, Program: short, Seq: 0, Op: short.Op(0)}) != sched.Grant {
				t.Fatal("short enters wake via donated x")
			}
			// y is still ahead of the donor: blocked by the wake rule.
			if d := p.Request(sched.OpRequest{Instance: 2, Program: short, Seq: 1, Op: short.Op(1)}); d != sched.Block {
				t.Fatalf("wake member touching donor's future object: %v, want Block", d)
			}
			for seq := 2; seq < 4; seq++ {
				if p.Request(sched.OpRequest{Instance: 1, Program: long, Seq: seq, Op: long.Op(seq)}) != sched.Grant {
					t.Fatal("long unit 2")
				}
			}
			p.Commit(1)
			if d := p.Request(sched.OpRequest{Instance: 2, Program: short, Seq: 1, Op: short.Op(1)}); d != sched.Grant {
				t.Fatalf("after donor commit: %v", d)
			}
			p.Commit(2)
		})
	}
}

func TestAltruisticPlainLockingStillWorks(t *testing.T) {
	// Without donations it degenerates to strict 2PL.
	t1 := core.T(1, core.W("x"))
	t2 := core.T(2, core.W("x"))
	for _, pc := range donationProtocols {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.make(sched.AbsoluteOracle{})
			p.Begin(1, t1)
			p.Begin(2, t2)
			if p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}) != sched.Grant {
				t.Fatal("first writer")
			}
			if p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}) != sched.Block {
				t.Fatal("second writer should block (no donation)")
			}
			p.Commit(1)
			if p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}) != sched.Grant {
				t.Fatal("after release")
			}
			p.Commit(2)
		})
	}
}

// TestDonationStateDrainsWithInstances drives 500 transactions to
// commit through the real driver (restarted instances abort on the
// way) and checks that neither donation protocol keeps per-instance
// state for any of them afterwards.
func TestDonationStateDrainsWithInstances(t *testing.T) {
	for _, pc := range donationProtocols {
		t.Run(pc.name, func(t *testing.T) {
			w, err := workload.Synthetic(workload.SyntheticConfig{
				Objects: 64, Programs: 500, OpsPerTxn: 8, WriteRatio: 0.25, Granularity: 2,
			}, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := pc.make(w.Oracle)
			res, _, err := w.RunWith(p, workload.RunOptions{Seed: 1, MPL: 8})
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 500 || res.Aborts == 0 {
				t.Fatalf("%s: want 500 commits and some aborts", res)
			}
			if n := sched.DonationRecords(p); n != 0 {
				t.Errorf("%d instance records left after every instance finished", n)
			}
		})
	}
}

func TestDecisionString(t *testing.T) {
	if sched.Grant.String() != "grant" || sched.Block.String() != "block" || sched.Abort.String() != "abort" {
		t.Error("Decision strings wrong")
	}
	if sched.Decision(9).String() != "unknown" {
		t.Error("unknown decision string")
	}
}

func TestSpecOracleRoundTrip(t *testing.T) {
	inst := paperfig.Figure1()
	oracle := sched.SpecOracle{Spec: inst.Spec}
	t1 := inst.Set.Txn(1)
	t2 := inst.Set.Txn(2)
	cuts := oracle.Cuts(t1, t2)
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Errorf("Cuts(T1, T2) = %v, want [2]", cuts)
	}
	cuts = oracle.Cuts(t1, inst.Set.Txn(3))
	if len(cuts) != 2 || cuts[0] != 2 || cuts[1] != 3 {
		t.Errorf("Cuts(T1, T3) = %v, want [2 3]", cuts)
	}
}

func TestTOOrdersConflictsByTimestamp(t *testing.T) {
	t1 := core.T(1, core.W("x"))
	t2 := core.T(2, core.R("x"))
	p := sched.NewTOSharded(1)
	p.Begin(1, t1)
	p.Begin(2, t2)
	// Younger T2 reads first; elder T1's late write must abort.
	if d := p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}); d != sched.Grant {
		t.Fatalf("T2 read: %v", d)
	}
	if d := p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}); d != sched.Abort {
		t.Fatalf("late write by elder: %v, want Abort", d)
	}
	p.Abort(1)
	p.Commit(2)
	// Restarted incarnation (fresh, higher instance) succeeds.
	p.Begin(3, t1)
	if d := p.Request(sched.OpRequest{Instance: 3, Program: t1, Seq: 0, Op: t1.Op(0)}); d != sched.Grant {
		t.Fatalf("restarted write: %v", d)
	}
	p.Commit(3)
}

func TestTOAdmitsTimestampOrder(t *testing.T) {
	// All three Figure 1 schedules replayed with instance = txn id:
	// T/O admits an operation iff no younger access beat it; Sra has
	// r2[y] before T3's writes and r1 ops before w3 — all ascending
	// conflicts? Verify at least that a serial ascending replay works.
	inst := paperfig.Figure1()
	s, err := core.SerialSchedule(inst.Set)
	if err != nil {
		t.Fatal(err)
	}
	if !allGrant(replay(t, sched.NewTOSharded(1), s)) {
		t.Error("ascending serial schedule must be fully admitted by T/O")
	}
}

func TestTOLateRead(t *testing.T) {
	t1 := core.T(1, core.R("x"))
	t2 := core.T(2, core.W("x"))
	p := sched.NewTOSharded(1)
	p.Begin(1, t1)
	p.Begin(2, t2)
	if d := p.Request(sched.OpRequest{Instance: 2, Program: t2, Seq: 0, Op: t2.Op(0)}); d != sched.Grant {
		t.Fatalf("T2 write: %v", d)
	}
	if d := p.Request(sched.OpRequest{Instance: 1, Program: t1, Seq: 0, Op: t1.Op(0)}); d != sched.Abort {
		t.Fatalf("late read by elder: %v, want Abort", d)
	}
}

func TestProtocolNames(t *testing.T) {
	inst := paperfig.Figure1()
	oracle := sched.SpecOracle{Spec: inst.Spec}
	for want, p := range map[string]sched.Protocol{
		"nocc":       sched.NewNoCC(),
		"s2pl":       sched.NewS2PL(),
		"sgt":        sched.NewSGT(),
		"rsgt":       sched.NewRSGT(oracle),
		"altruistic": sched.NewAltruistic(oracle),
		"to":         sched.NewTOSharded(1),
		"ral":        sched.NewRAL(oracle),
	} {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
		// The trivial lifecycle methods must be safe on fresh state.
		p.Begin(99, inst.Set.Txn(1))
		if !p.CanCommit(99) {
			t.Errorf("%s: fresh instance cannot commit", want)
		}
		p.Abort(99)
	}
}
