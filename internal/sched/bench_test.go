package sched_test

import (
	"math/rand"
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
)

// BenchmarkRSGTRequestRel is the ladder's mix-rel shape at protocol
// level, on the CI benchstat gate: one op is a round of 8 concurrent
// instances x 16 operations (atomic units of 4, a quarter writes) over
// 64 shared objects, issued round-robin, then committed and retired. A
// Request's cost here is the dependency-clock join plus one F/B pair
// per clock entry the request advances.
func BenchmarkRSGTRequestRel(b *testing.B) { benchRounds(b, sched.NewRSGT(unitsOf4)) }

// unitsOf4 cuts every 16-operation program into atomic units of 4,
// relative to every observer, without allocating per call.
var (
	cutsOf4  = []int{4, 8, 12}
	unitsOf4 = sched.OracleFunc(func(_, _ *core.Transaction) []int { return cutsOf4 })
)

// BenchmarkRALRequest is the same round under RAL: the lock-donation
// discipline with per-observer cuts in front of RSGT. A refused
// request here is usually a lock wait, which the round turns into an
// abort.
func BenchmarkRALRequest(b *testing.B) { benchRounds(b, sched.NewRAL(unitsOf4)) }

// BenchmarkAltruisticRequest is the same round under altruistic
// locking: RAL's lock discipline with self cuts and no graph.
func BenchmarkAltruisticRequest(b *testing.B) { benchRounds(b, sched.NewAltruistic(unitsOf4)) }

// BenchmarkSGTRequest is the same round under SGT — RSGT's
// AbsoluteOracle special case, one vertex per instance — whose traffic
// (E8, E13, examples/longlived, rssim -protocol sgt) no ladder workload
// runs. A Request's cost here is the covering scan plus one arc per
// distinct resident source.
func BenchmarkSGTRequest(b *testing.B) { benchRounds(b, sched.NewSGT()) }

// benchRounds drives p through b.N rounds of live instances drawn from
// a fixed pool of programs: every instance issues its ops round-robin,
// aborts on refusal, and the survivors commit; a Retirer then has its
// low-water mark moved past the round and retirement flushed.
func benchRounds(b *testing.B, p sched.Protocol) {
	retirer, _ := p.(sched.Retirer)
	const (
		live, ops     = 8, 16
		objects, pool = 64, 64
	)
	rng := rand.New(rand.NewSource(16))
	progs := make([]*core.Transaction, pool)
	for i := range progs {
		body := make([]core.Op, ops)
		for k := range body {
			obj := "o" + string(rune('A'+rng.Intn(objects)))
			if rng.Intn(4) == 0 {
				body[k] = core.W(obj)
			} else {
				body[k] = core.R(obj)
			}
		}
		progs[i] = core.T(core.TxnID(i+1), body...)
	}

	b.ReportAllocs()
	b.ResetTimer()
	next := int64(1)
	for i := 0; i < b.N; i++ {
		var round [live]*core.Transaction
		var aborted [live]bool
		for k := range round {
			round[k] = progs[(i*live+k)%pool]
			p.Begin(next+int64(k), round[k])
		}
		for seq := 0; seq < ops; seq++ {
			for k, tx := range round {
				if aborted[k] {
					continue
				}
				id := next + int64(k)
				if p.Request(sched.OpRequest{Instance: id, Program: tx, Seq: seq, Op: tx.Op(seq)}) != sched.Grant {
					p.Abort(id)
					aborted[k] = true
				}
			}
		}
		for k := range round {
			if !aborted[k] {
				p.Commit(next + int64(k))
			}
		}
		next += live
		if retirer != nil {
			retirer.SetLowWater(next)
			retirer.FlushRetirement()
		}
	}
}
