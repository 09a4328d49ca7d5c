package workload_test

import (
	"fmt"
	"testing"

	"relser/internal/core"
	"relser/internal/sched"
	"relser/internal/workload"
)

// protocols returns fresh instances of every correct protocol for a
// workload (NoCC excluded: it makes no correctness promise).
func protocols(w *workload.Workload) map[string]sched.Protocol {
	return map[string]sched.Protocol{
		"s2pl":       sched.NewS2PL(),
		"sgt":        sched.NewSGT(),
		"rsgt":       sched.NewRSGT(w.Oracle),
		"altruistic": sched.NewAltruistic(w.Oracle),
		"to":         sched.NewTO(),
		"ral":        sched.NewRAL(w.Oracle),
	}
}

func runAll(t *testing.T, make func(seed int64) (*workload.Workload, error), seeds []int64) {
	t.Helper()
	for _, seed := range seeds {
		w, err := make(seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range protocols(w) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				res, err := w.Run(p, seed, 8)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Committed != len(w.Programs) {
					t.Fatalf("committed %d of %d programs", res.Committed, len(w.Programs))
				}
				if err := res.Verify(); err != nil {
					t.Errorf("schedule verification: %v", err)
				}
			})
		}
	}
}

func TestBankingAllProtocols(t *testing.T) {
	runAll(t, func(seed int64) (*workload.Workload, error) {
		return workload.Banking(workload.DefaultBankingConfig(), seed)
	}, []int64{1, 2, 3})
}

func TestCADCAMAllProtocols(t *testing.T) {
	runAll(t, func(seed int64) (*workload.Workload, error) {
		return workload.CADCAM(workload.DefaultCADCAMConfig(), seed)
	}, []int64{1, 2})
}

func TestLongLivedAllProtocols(t *testing.T) {
	runAll(t, func(seed int64) (*workload.Workload, error) {
		return workload.LongLived(workload.DefaultLongLivedConfig(), seed)
	}, []int64{1, 2})
}

func TestSyntheticAllProtocols(t *testing.T) {
	runAll(t, func(seed int64) (*workload.Workload, error) {
		return workload.Synthetic(workload.DefaultSyntheticConfig(), seed)
	}, []int64{1})
}

func TestBankingValidation(t *testing.T) {
	if _, err := workload.Banking(workload.BankingConfig{}, 1); err == nil {
		t.Error("empty banking config accepted")
	}
	if _, err := workload.Banking(workload.BankingConfig{Families: 1, AccountsPerFamily: 1, Customers: 1}, 1); err == nil {
		t.Error("transfers with one account accepted")
	}
}

func TestCADCAMValidation(t *testing.T) {
	if _, err := workload.CADCAM(workload.CADCAMConfig{}, 1); err == nil {
		t.Error("empty cadcam config accepted")
	}
}

func TestLongLivedValidation(t *testing.T) {
	if _, err := workload.LongLived(workload.LongLivedConfig{}, 1); err == nil {
		t.Error("empty longlived config accepted")
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := workload.Synthetic(workload.SyntheticConfig{}, 1); err == nil {
		t.Error("empty synthetic config accepted")
	}
}

func TestSyntheticGranularityKnob(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Granularity = 0 // absolute
	w, err := workload.Synthetic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cuts := w.Oracle.Cuts(w.Programs[0], w.Programs[1]); len(cuts) != 0 {
		t.Errorf("granularity 0 should be absolute, got cuts %v", cuts)
	}
	if _, ok := w.Oracle.(sched.AbsoluteOracle); !ok {
		t.Errorf("granularity 0 oracle is %T, want sched.AbsoluteOracle (RSGT's one-vertex path)", w.Oracle)
	}
	cfg.Granularity = 1
	w, err = workload.Synthetic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cuts := w.Oracle.Cuts(w.Programs[0], w.Programs[1]); len(cuts) != cfg.OpsPerTxn-1 {
		t.Errorf("granularity 1 should be fully breakable, got cuts %v", cuts)
	}
}

func TestLongLivedAltruisticBeatsS2PLOnBlocking(t *testing.T) {
	// The [SGMA87] claim §5 cites: altruistic locking lets short
	// transactions run inside the long transaction's lifetime. Compare
	// blocking: altruistic should block strictly less than plain 2PL on
	// the long-lived mix, with everything still committing.
	cfg := workload.LongLivedConfig{Objects: 12, LongTxns: 1, ShortTxns: 20}
	var blocks2pl, blocksAlt int
	for seed := int64(1); seed <= 3; seed++ {
		w, err := workload.LongLived(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := w.Run(sched.NewS2PL(), seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := workload.LongLived(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := w2.Run(sched.NewAltruistic(w2.Oracle), seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		blocks2pl += r1.Blocks
		blocksAlt += r2.Blocks
	}
	if blocksAlt >= blocks2pl {
		t.Errorf("altruistic blocked %d times vs 2PL's %d; expected less blocking", blocksAlt, blocks2pl)
	}
}

func TestBankingInvariantCatchesCorruption(t *testing.T) {
	// Sanity-check the invariant itself: running under NoCC with many
	// contended seeds should eventually corrupt balance conservation
	// (lost updates), which the invariant must report.
	cfg := workload.BankingConfig{
		Families:          1,
		AccountsPerFamily: 2,
		Customers:         10,
		InitialBalance:    100,
	}
	corrupted := false
	for seed := int64(0); seed < 40 && !corrupted; seed++ {
		w, err := workload.Banking(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(sched.NewNoCC(), seed, 8); err != nil {
			corrupted = true
		}
	}
	if !corrupted {
		t.Skip("NoCC stayed consistent across seeds (recoverability gating is strong on this mix)")
	}
}

func TestSyntheticZipfSkew(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Objects = 64
	cfg.Programs = 40
	cfg.OpsPerTxn = 10
	cfg.ZipfS = 1.5
	w, err := workload.Synthetic(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	total := 0
	for _, p := range w.Programs {
		for _, o := range p.Ops {
			counts[o.Object]++
			total++
		}
	}
	// Zipf with s=1.5 concentrates mass on rank 0: the hottest object
	// should dominate any mid-rank object.
	if counts["o_0"] <= counts["o_32"] {
		t.Errorf("zipf skew missing: o_0=%d, o_32=%d", counts["o_0"], counts["o_32"])
	}
	if counts["o_0"]*4 < total/cfg.Objects {
		t.Errorf("hottest object suspiciously cold: %d of %d", counts["o_0"], total)
	}
}

// TestCertGraphSizeMixRel is the growth guard on the offline Theorem 1
// test that needs no wall clock: the 192-program committed schedule of
// the ladder's mix-rel shape is certified on a graph of at most 60 000
// arcs (Definition 3's has 2.8 million).
func TestCertGraphSizeMixRel(t *testing.T) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Objects: 512, Programs: 192, OpsPerTxn: 16, WriteRatio: 0.25, Granularity: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{Seed: 1, MPL: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, sp, err := res.CommittedSchedule()
	if err != nil {
		t.Fatal(err)
	}
	rsg := core.BuildRSG(s, sp)
	if !rsg.Acyclic() {
		t.Fatalf("RSGT committed a schedule the Theorem 1 test rejects: cycle %v", rsg.Cycle())
	}
	if res.Committed != 192 || rsg.TestedArcs() > 60000 {
		t.Errorf("%d programs certified on %d arcs, want 192 on at most 60000", res.Committed, rsg.TestedArcs())
	}
	t.Logf("tested arcs: %d over %d operations", rsg.TestedArcs(), s.Len())
}
