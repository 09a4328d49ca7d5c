package core_test

// Property-based tests (testing/quick) over randomly generated
// instances: transaction sets, relative atomicity specifications and
// schedules. Each property takes a generator seed from quick and
// derives the instance deterministically, so failures reproduce.

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"relser/internal/core"
)

// genInstance derives a random transaction set (2-4 transactions of
// 1-4 operations over 4 objects), specification and schedule from a
// seed.
func genInstance(seed int64) (*core.TxnSet, *core.Spec, *core.Schedule) {
	return genInstanceSized(seed, 4, 4, 4)
}

// genInstanceSized is genInstance with 2..maxTxn transactions of
// 1..maxOps operations over the first nObj objects.
func genInstanceSized(seed int64, maxTxn, maxOps, nObj int) (*core.TxnSet, *core.Spec, *core.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	objects := []string{"x", "y", "z", "u", "v", "w"}[:nObj]
	nTxn := 2 + rng.Intn(maxTxn-1)
	txns := make([]*core.Transaction, nTxn)
	for i := range txns {
		nOps := 1 + rng.Intn(maxOps)
		ops := make([]core.Op, nOps)
		for k := range ops {
			obj := objects[rng.Intn(len(objects))]
			if rng.Intn(2) == 0 {
				ops[k] = core.R(obj)
			} else {
				ops[k] = core.W(obj)
			}
		}
		txns[i] = core.T(core.TxnID(i+1), ops...)
	}
	ts := core.MustTxnSet(txns...)
	sp := core.NewSpec(ts)
	for _, a := range txns {
		for _, b := range txns {
			if a.ID == b.ID {
				continue
			}
			// Random cut pattern: each interior boundary independently.
			for p := 0; p+1 < a.Len(); p++ {
				if rng.Intn(3) == 0 {
					if err := sp.CutAfter(a.ID, b.ID, p); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return ts, sp, randomSchedule(rng, ts)
}

func quickCfg(max int) *quick.Config {
	return &quick.Config{MaxCount: max, Rand: rand.New(rand.NewSource(2026))}
}

// Property: the class hierarchy of Figure 5 holds pointwise on random
// instances: serial ⇒ RA ⇒ RS ⇒ RSer.
func TestPropertyClassHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		_, sp, s := genInstance(seed)
		serial := s.IsSerial()
		ra, _ := core.IsRelativelyAtomic(s, sp)
		rs, _ := core.IsRelativelySerial(s, sp)
		rser := core.IsRelativelySerializable(s, sp)
		if serial && !ra {
			return false
		}
		if ra && !rs {
			return false
		}
		if rs && !rser {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(300)); err != nil {
		t.Error(err)
	}
}

// Property: Theorem 1 roundtrip — whenever the RSG is acyclic, its
// topological witness is conflict equivalent to the schedule and
// relatively serial; whenever it is cyclic, the schedule is not
// relatively serial (Lemma 2 contrapositive).
func TestPropertyTheorem1Roundtrip(t *testing.T) {
	f := func(seed int64) bool {
		_, sp, s := genInstance(seed)
		rsg := core.BuildRSG(s, sp)
		if rsg.Acyclic() {
			w, err := rsg.Witness()
			if err != nil {
				return false
			}
			if !core.ConflictEquivalent(w, s) {
				return false
			}
			ok, _ := core.IsRelativelySerial(w, sp)
			return ok
		}
		ok, _ := core.IsRelativelySerial(s, sp)
		return !ok
	}
	if err := quick.Check(f, quickCfg(300)); err != nil {
		t.Error(err)
	}
}

// Property: the witness is idempotent — re-deriving the witness of a
// witness returns the witness itself (it is already relatively serial
// and the topological sort prefers the original order).
func TestPropertyWitnessIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		_, sp, s := genInstance(seed)
		rsg := core.BuildRSG(s, sp)
		if !rsg.Acyclic() {
			return true
		}
		w, err := rsg.Witness()
		if err != nil {
			return false
		}
		w2, err := core.BuildRSG(w, sp).Witness()
		if err != nil {
			return false
		}
		return w2.String() == w.String()
	}
	if err := quick.Check(f, quickCfg(200)); err != nil {
		t.Error(err)
	}
}

// Property: depends-on is transitive and respects schedule order.
func TestPropertyDependsTransitive(t *testing.T) {
	f := func(seed int64) bool {
		_, _, s := genInstance(seed)
		d := core.ComputeDepends(s)
		n := s.Len()
		for c := 0; c < n; c++ {
			for b := 0; b < c; b++ {
				if !d.DependsOnPos(c, b) {
					continue
				}
				for a := 0; a < b; a++ {
					if d.DependsOnPos(b, a) && !d.DependsOnPos(c, a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(150)); err != nil {
		t.Error(err)
	}
}

// Property: spec units tile each transaction exactly, and
// PushForward/PullBackward return the bounds of the unit containing
// the operation (so they are idempotent).
func TestPropertySpecUnits(t *testing.T) {
	f := func(seed int64) bool {
		ts, sp, _ := genInstance(seed)
		for _, a := range ts.Txns() {
			for _, b := range ts.Txns() {
				if a.ID == b.ID {
					continue
				}
				covered := 0
				for k := 0; k < sp.NumUnits(a.ID, b.ID); k++ {
					start, end := sp.Unit(a.ID, b.ID, k)
					if start > end || start != covered {
						return false
					}
					covered = end + 1
				}
				if covered != a.Len() {
					return false
				}
				for seq := 0; seq < a.Len(); seq++ {
					start, end := sp.UnitOf(a.ID, seq, b.ID)
					if seq < start || seq > end {
						return false
					}
					pf := sp.PushForward(a.Op(seq), b.ID)
					pb := sp.PullBackward(a.Op(seq), b.ID)
					if pf.Seq != end || pb.Seq != start {
						return false
					}
					if sp.PushForward(pf, b.ID) != pf || sp.PullBackward(pb, b.ID) != pb {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(150)); err != nil {
		t.Error(err)
	}
}

// Property: conflict equivalence is reflexive, and the serialization
// witness of a conflict-serializable schedule is conflict equivalent
// in both directions (symmetry on a nontrivial pair).
func TestPropertyConflictEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		_, _, s := genInstance(seed)
		if !core.ConflictEquivalent(s, s) {
			return false
		}
		if core.IsConflictSerializable(s) {
			w, err := core.SerialWitness(s)
			if err != nil {
				return false
			}
			if !core.ConflictEquivalent(s, w) || !core.ConflictEquivalent(w, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(200)); err != nil {
		t.Error(err)
	}
}

// Property: instance text round-trips through FormatInstance and
// ParseInstance.
func TestPropertyInstanceRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		ts, sp, s := genInstance(seed)
		inst := &core.Instance{
			Set:       ts,
			Spec:      sp,
			Schedules: map[string]*core.Schedule{"S": s},
			Names:     []string{"S"},
		}
		text := core.FormatInstance(inst)
		back, err := core.ParseInstance(strings.NewReader(text))
		if err != nil {
			return false
		}
		return back.Set.String() == ts.String() &&
			back.Spec.String() == sp.String() &&
			back.Schedules["S"].String() == s.String()
	}
	if err := quick.Check(f, quickCfg(150)); err != nil {
		t.Error(err)
	}
}

// Property: under absolute atomicity, relative serializability
// coincides with conflict serializability (Lemma 1, the E10 claim, at
// the unit-test level).
func TestPropertyLemma1(t *testing.T) {
	f := func(seed int64) bool {
		ts, _, s := genInstance(seed)
		abs := core.NewSpec(ts)
		return core.IsRelativelySerializable(s, abs) == core.IsConflictSerializable(s)
	}
	if err := quick.Check(f, quickCfg(300)); err != nil {
		t.Error(err)
	}
}

// Property: fully breakable specifications admit everything whose
// op-level dependency graph is consistent — in particular, every
// schedule is relatively ATOMIC under AllowAllPairs (no unit has two
// operations).
func TestPropertyAllowAllAdmitsEverything(t *testing.T) {
	f := func(seed int64) bool {
		ts, _, s := genInstance(seed)
		sp := core.NewSpec(ts)
		sp.AllowAllPairs()
		ra, _ := core.IsRelativelyAtomic(s, sp)
		return ra
	}
	if err := quick.Check(f, quickCfg(200)); err != nil {
		t.Error(err)
	}
}

// Property: the parser never accepts garbage it cannot round-trip —
// feeding random op tokens to ParseOp either errors or produces an op
// whose String() parses back to the same op.
func TestPropertyParseOpRoundTrip(t *testing.T) {
	f := func(raw string) bool {
		op, err := core.ParseOp(raw)
		if err != nil {
			return true // rejection is fine
		}
		back, err := core.ParseOp(op.String())
		return err == nil && back == op
	}
	if err := quick.Check(f, quickCfg(500)); err != nil {
		t.Error(err)
	}
}
