package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// TestE16QuickTablePinned pins `rsbench -e E16 -quick`'s deterministic
// table by value: every row's printed cells plus an FNV-1a hash of the
// run's flattened WAL bytes (record.FlattenSegmentSet). The concurrent
// latency and wedge legs are timed and stay out. A change that moves a
// row on purpose rewrites testdata/e16_quick.txt with the lines this
// test prints and names each moved cell in CHANGES.md.
func TestE16QuickTablePinned(t *testing.T) {
	opts := Options{Quick: true, Seed: 1}
	var got strings.Builder
	for _, lg := range chaosLegs {
		for seed := opts.Seed; seed < opts.Seed+2; seed++ { // -quick: rsgt, seeds 1 and 2
			out, replayOK, err := chaosReplayed(context.Background(), lg.manifest("rsgt", seed), "", opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", lg.name, seed, err)
			}
			h := fnv.New64a()
			h.Write(out.wal)
			fmt.Fprintln(&got, append(out.row(lg.name, "rsgt", seed, replayOK), fmt.Sprintf("wal=%016x", h.Sum64()))...)
		}
	}
	want, err := os.ReadFile("testdata/e16_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("E16 -quick table moved; got:\n%s\nwant:\n%s", got.String(), want)
	}
}
