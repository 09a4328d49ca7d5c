// Recovery: durability end to end. The banking workload runs under the
// paper's RSGT protocol with a one-lane write-ahead log attached (held
// in memory); the example then simulates a crash by truncating the
// lane's segment at several points and recovers a store from each
// prefix, showing that exactly the committed transactions survive and
// balance conservation holds at every cut.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"relser"
	"relser/internal/storage"
	"relser/internal/workload"
)

func main() {
	cfg := workload.DefaultBankingConfig()
	w, err := relser.Banking(cfg, 11)
	if err != nil {
		log.Fatal(err)
	}
	p, err := relser.NewProtocol("rsgt", w.Oracle)
	if err != nil {
		log.Fatal(err)
	}
	// The root entry point runs under a context; the timeout bounds the
	// whole run's wall time (far above what this example needs — it is
	// here to show the cancellation plumbing, not to fire).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mem := storage.NewMemBackend()
	wal, err := storage.NewShardedWAL(mem, storage.SegmentedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, store, err := relser.Run(ctx, w, p, relser.RunOptions{
		Seed: 11,
		MPL:  8,
		WAL:  wal,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		log.Fatal(err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		log.Fatal(err)
	}
	// The run stays far below the rotation threshold: the lane is one
	// segment, and a crash image of it is a byte prefix.
	if len(set.Shards[0]) != 1 {
		log.Fatalf("expected a one-segment log, got %d segments", len(set.Shards[0]))
	}
	full := set.Shards[0][0]
	fmt.Println("run:", res)
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed schedule certified relatively serializable")
	fmt.Printf("WAL: %d bytes\n\n", len(full))

	fmt.Println("crash simulation (recover from log prefixes):")
	for _, frac := range []int{25, 50, 75, 100} {
		crashed := &storage.SegmentSet{Shards: map[int][][]byte{0: {full[:len(full)*frac/100]}}}
		recovered, report, err := storage.RecoverSegmented(crashed, w.Initial)
		if err != nil {
			log.Fatal(err)
		}
		sumOK := "balances conserved"
		if w.Invariant != nil {
			if err := w.Invariant(recovered.Snapshot()); err != nil {
				sumOK = "INVARIANT BROKEN: " + err.Error()
			}
		}
		fmt.Printf("  %3d%% of log: %s — %s\n", frac, report, sumOK)
	}

	// Sanity: the full-log recovery matches the live store exactly.
	recovered, _, err := storage.RecoverSegmented(set, w.Initial)
	if err != nil {
		log.Fatal(err)
	}
	live := store.Snapshot()
	for obj, v := range recovered.Snapshot() {
		if live[obj] != v {
			log.Fatalf("mismatch on %s: recovered %d, live %d", obj, v, live[obj])
		}
	}
	fmt.Println("\nfull-log recovery matches the live store object for object")
}
