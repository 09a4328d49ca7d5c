package txn_test

// Multi-lane durability parity: both drivers, run over a 4-lane log
// rotating every 512 bytes instead of the one-lane test log, must
// still certify, and parallel recovery of the image must reproduce the
// live store and the workload invariant — the tick driver and the
// goroutine driver agree across lanes and rotations too.

import (
	"fmt"
	"testing"

	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// segParityRun is parityRun over four rotating lanes: run the driver,
// close the log, recover the crash image, and cross-check.
func segParityRun(t *testing.T, sc parityScenario, seed int64, concurrent bool) (*txn.Result, *storage.SegmentedReport) {
	t.Helper()
	w, err := sc.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemBackend()
	swal, err := storage.NewShardedWAL(mem, storage.SegmentedOptions{Shards: 4, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, store, err := w.RunWith(sc.proto(w), workload.RunOptions{
		Seed:       seed,
		MPL:        8,
		WAL:        swal,
		Concurrent: concurrent,
		Shards:     4,
	})
	if err != nil {
		t.Fatalf("concurrent=%v: %v", concurrent, err)
	}
	if err := swal.Close(); err != nil {
		t.Fatalf("concurrent=%v: close WAL: %v", concurrent, err)
	}
	if res.Committed != len(w.Programs) {
		t.Fatalf("concurrent=%v: committed %d of %d programs", concurrent, res.Committed, len(w.Programs))
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("concurrent=%v: certification verdict: %v", concurrent, err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	recovered, report, err := storage.RecoverSegmented(set, w.Initial)
	if err != nil {
		t.Fatalf("concurrent=%v: recovery: %v", concurrent, err)
	}
	if !report.Clean() {
		t.Fatalf("concurrent=%v: segmented recovery not clean: %s", concurrent, report)
	}
	live := store.Snapshot()
	for obj, v := range recovered.Snapshot() {
		if live[obj] != v {
			t.Fatalf("concurrent=%v: recovered %s=%d, live %d", concurrent, obj, v, live[obj])
		}
	}
	if w.Invariant != nil {
		if err := w.Invariant(recovered.Snapshot()); err != nil {
			t.Fatalf("concurrent=%v: recovered store breaks invariant: %v", concurrent, err)
		}
	}
	return res, report
}

func TestSegmentedDurabilityParity(t *testing.T) {
	for _, sc := range parityCorpus() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				serialRes, serialRep := segParityRun(t, sc, seed, false)
				concRes, concRep := segParityRun(t, sc, seed, true)

				if serialRes.Committed != concRes.Committed {
					t.Errorf("committed diverge: serial %d, concurrent %d", serialRes.Committed, concRes.Committed)
				}
				if serialRep.Committed != concRep.Committed {
					t.Errorf("recovered commits diverge: serial %d, concurrent %d", serialRep.Committed, concRep.Committed)
				}
				for _, rep := range []*storage.SegmentedReport{serialRep, concRep} {
					if rep.Committed != serialRes.Committed {
						t.Errorf("recovery found %d commits, run reported %d", rep.Committed, serialRes.Committed)
					}
					if rep.Unfinished != 0 || rep.Orphans != 0 || rep.BeyondCut != 0 {
						t.Errorf("recovery not clean: %s", rep)
					}
				}
			})
		}
	}
}
