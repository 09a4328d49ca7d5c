package workload_test

import (
	"testing"

	"relser/internal/sched"
	"relser/internal/workload"
)

// TestSoakAllWorkloadsAllProtocols is the long randomized certification
// sweep: every workload under every correct protocol across many seeds
// and multiprogramming levels, with every committed schedule certified
// by the offline Theorem 1 test and every data invariant checked.
// Skipped with -short.
func TestSoakAllWorkloadsAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("soak sweep skipped with -short")
	}
	type maker struct {
		name string
		make func(seed int64) (*workload.Workload, error)
	}
	makers := []maker{
		{"banking", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultBankingConfig()
			cfg.CrossingAudits = true
			return workload.Banking(cfg, seed)
		}},
		{"cadcam", func(seed int64) (*workload.Workload, error) {
			return workload.CADCAM(workload.DefaultCADCAMConfig(), seed)
		}},
		{"longlived", func(seed int64) (*workload.Workload, error) {
			return workload.LongLived(workload.DefaultLongLivedConfig(), seed)
		}},
		{"synthetic-g2", func(seed int64) (*workload.Workload, error) {
			return workload.Synthetic(workload.DefaultSyntheticConfig(), seed)
		}},
		{"synthetic-zipf", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultSyntheticConfig()
			cfg.ZipfS = 1.3
			cfg.Granularity = 1
			return workload.Synthetic(cfg, seed)
		}},
	}
	protocols := []string{"s2pl", "sgt", "rsgt", "altruistic", "to", "ral"}
	for _, m := range makers {
		for _, proto := range protocols {
			t.Run(m.name+"/"+proto, func(t *testing.T) {
				t.Parallel()
				for seed := int64(10); seed < 18; seed++ {
					for _, mpl := range []int{3, 8} {
						w, err := m.make(seed)
						if err != nil {
							t.Fatal(err)
						}
						var p sched.Protocol
						switch proto {
						case "s2pl":
							p = sched.NewS2PL()
						case "sgt":
							p = sched.NewSGT()
						case "rsgt":
							p = sched.NewRSGT(w.Oracle)
						case "altruistic":
							p = sched.NewAltruistic(w.Oracle)
						case "to":
							p = sched.NewTOSharded(1)
						case "ral":
							p = sched.NewRAL(w.Oracle)
						}
						res, err := w.Run(p, seed, mpl)
						if err != nil {
							t.Fatalf("seed=%d mpl=%d: %v", seed, mpl, err)
						}
						if res.Committed != len(w.Programs) {
							t.Fatalf("seed=%d mpl=%d: committed %d of %d",
								seed, mpl, res.Committed, len(w.Programs))
						}
						if err := res.Verify(); err != nil {
							t.Fatalf("seed=%d mpl=%d: %v", seed, mpl, err)
						}
					}
				}
			})
		}
	}
}
