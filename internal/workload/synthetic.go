package workload

import (
	"fmt"
	"math/rand"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/storage"
)

// SyntheticConfig sizes the uniform random workload used for scaling
// sweeps (experiments E6 and E9).
type SyntheticConfig struct {
	Objects   int
	Programs  int
	OpsPerTxn int
	// WriteRatio in [0, 1] is the probability an operation writes.
	WriteRatio float64
	// Granularity is the atomic-unit length every transaction exposes
	// to every other: 0 or >= OpsPerTxn means absolute atomicity, 1
	// means fully breakable. 0 gives sched.AbsoluteOracle.
	Granularity int
	// HotFraction concentrates this fraction of accesses on the first
	// HotObjects objects, modelling contention; zero disables skew.
	HotFraction float64
	HotObjects  int
	// ZipfS, when > 1, draws objects from a Zipf distribution with
	// exponent s instead of the uniform/hot-set mix (rank 0 is the
	// hottest object).
	ZipfS float64
}

// DefaultSyntheticConfig returns a moderately contended mix.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Objects:     32,
		Programs:    24,
		OpsPerTxn:   8,
		WriteRatio:  0.4,
		Granularity: 2,
		HotFraction: 0.3,
		HotObjects:  4,
	}
}

// Synthetic generates a uniform random workload whose relative
// atomicity granularity is a single knob, for sweeps from absolute
// atomicity (the classical model) to fully breakable transactions.
func Synthetic(cfg SyntheticConfig, seed int64) (*Workload, error) {
	if cfg.Objects <= 0 || cfg.Programs <= 0 || cfg.OpsPerTxn <= 0 {
		return nil, fmt.Errorf("workload: synthetic needs objects, programs and operations")
	}
	if cfg.HotObjects <= 0 || cfg.HotObjects > cfg.Objects {
		cfg.HotObjects = 1
	}
	rng := rand.New(rand.NewSource(seed))
	obj := func(i int) string { return fmt.Sprintf("o_%d", i) }

	initial := make(map[string]storage.Value)
	for i := 0; i < cfg.Objects; i++ {
		initial[obj(i)] = 0
	}

	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Objects-1))
	}
	pick := func() string {
		if zipf != nil {
			return obj(int(zipf.Uint64()))
		}
		if cfg.HotFraction > 0 && rng.Float64() < cfg.HotFraction {
			return obj(rng.Intn(cfg.HotObjects))
		}
		return obj(rng.Intn(cfg.Objects))
	}
	var programs []*core.Transaction
	for p := 0; p < cfg.Programs; p++ {
		ops := make([]core.Op, cfg.OpsPerTxn)
		for k := range ops {
			if rng.Float64() < cfg.WriteRatio {
				ops[k] = core.W(pick())
			} else {
				ops[k] = core.R(pick())
			}
		}
		programs = append(programs, core.T(core.TxnID(p+1), ops...))
	}

	// Granularity 0 is the classical model, which the graph protocols
	// certify at transaction granularity (Lemma 1). Otherwise cuts
	// depend only on a program's length, which is OpsPerTxn for every
	// program generated here, so one slice answers them all; a program
	// of another length is answered by computing its cuts.
	var oracle sched.AtomicityOracle = sched.AbsoluteOracle{}
	if g := cfg.Granularity; g > 0 {
		cuts := everyK(programs[0], g)
		oracle = sched.OracleFunc(func(a, _ *core.Transaction) []int {
			if a.Len() != cfg.OpsPerTxn {
				return everyK(a, g)
			}
			return cuts
		})
	}

	return &Workload{
		Name:     fmt.Sprintf("synthetic(g=%d)", cfg.Granularity),
		Programs: programs,
		Oracle:   oracle,
		Initial:  initial,
	}, nil
}
