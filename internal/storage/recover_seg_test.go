package storage

import (
	"fmt"
	"sort"
	"testing"
)

// buildTwoLaneSet logs one transaction per lane in a known global
// order and returns the crash image: lane 0 commits first (lower GSN),
// lane 1 second.
func buildTwoLaneSet(t *testing.T) (*SegmentSet, [2]int64) {
	t.Helper()
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	i0 := laneInstance(w, 0, 1)
	i1 := laneInstance(w, 1, 1)
	logTxn(t, w, i0, "x", 1) // GSNs 1..3
	logTxn(t, w, i1, "y", 2) // GSNs 4..6
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	return set, [2]int64{i0, i1}
}

// sortedBoundaries returns a segment's unit boundaries in order.
func sortedBoundaries(seg []byte) []int {
	m := segFrameBoundaries(seg)
	out := make([]int, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// TestRecoverSegmentedCrossShardCut tears lane 0's commit frame: the
// cut (lane 0's horizon) must also discard lane 1's later commit, even
// though lane 1's log is pristine — the cross-shard reconciliation the
// design argues for.
func TestRecoverSegmentedCrossShardCut(t *testing.T) {
	set, _ := buildTwoLaneSet(t)

	// Control: the intact image recovers both commits.
	st, rep, err := RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Committed != 2 {
		t.Fatalf("control recovery: %s", rep)
	}
	if snap := st.Snapshot(); snap["x"] != 1 || snap["y"] != 2 {
		t.Fatalf("control store: %v", snap)
	}

	// Tear lane 0 three bytes into its commit frame.
	seg := set.Shards[0][0]
	bounds := sortedBoundaries(seg)
	commitStart := bounds[len(bounds)-2]
	set.Shards[0][0] = seg[:commitStart+3]

	st, rep, err = RecoverSegmented(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("torn lane 0 reported clean")
	}
	if !rep.CutApplied || rep.CutShard != 0 {
		t.Fatalf("cut not applied by shard 0: %s", rep)
	}
	if rep.Cut != 2 {
		t.Fatalf("cut = %d, want 2 (lane 0's last valid record)", rep.Cut)
	}
	if rep.Committed != 0 || rep.BeyondCut != 1 {
		t.Fatalf("want 0 commits and 1 beyond the cut, got: %s", rep)
	}
	snap := st.Snapshot()
	if len(snap) != 0 {
		t.Fatalf("store not empty after cut: %v", snap)
	}
}

// TestRecoverSegmentedFirstDamagedDeterministic damages several lanes
// in different ways: the reported first-failing shard is the lowest
// index per damage kind, never a scan-order race.
func TestRecoverSegmentedFirstDamagedDeterministic(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var from int64 = 1
	for lane := 0; lane < 4; lane++ {
		id := laneInstance(w, lane, from)
		from = id + 1
		logTxn(t, w, id, fmt.Sprintf("o%d", lane), Value(lane+1))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	// Lanes 1 and 3: torn (mid-frame truncation). Lane 2: corrupt (bit
	// flip in a frame payload).
	for _, lane := range []int{1, 3} {
		seg := set.Shards[lane][0]
		bounds := sortedBoundaries(seg)
		set.Shards[lane][0] = seg[:bounds[len(bounds)-2]+3]
	}
	flip := append([]byte(nil), set.Shards[2][0]...)
	flip[SegmentHeaderSize+segFrameHeaderSize+2] ^= 0x10
	set.Shards[2][0] = flip

	for i := 0; i < 10; i++ {
		_, rep, err := RecoverSegmented(set, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sh, ok := rep.FirstDamagedKind(TailTorn); !ok || sh.Shard != 1 {
			t.Fatalf("run %d: first torn = %+v (ok=%v), want shard 1", i, sh, ok)
		}
		if sh, ok := rep.FirstDamagedKind(TailCorrupt); !ok || sh.Shard != 2 {
			t.Fatalf("run %d: first corrupt = %+v (ok=%v), want shard 2", i, sh, ok)
		}
	}
}

// TestRecoverSegmentedPrefixDependencyClean encodes a cross-lane
// dependency chain — y is only advanced to k after x reached k — and
// sweeps EVERY byte prefix of each lane: recovery must never produce a
// state with y > x, which is exactly what the cross-shard cut
// guarantees (all dependencies point at lower GSNs).
func TestRecoverSegmentedPrefixDependencyClean(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var from0, from1 int64 = 1, 1
	for k := 1; k <= 10; k++ {
		i0 := laneInstance(w, 0, from0)
		from0 = i0 + 1
		logTxn(t, w, i0, "x", Value(k))
		i1 := laneInstance(w, 1, from1)
		from1 = i1 + 1
		logTxn(t, w, i1, "y", Value(k))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Shards[0]) != 1 || len(full.Shards[1]) != 1 {
		t.Fatalf("want one segment per lane, got %d/%d", len(full.Shards[0]), len(full.Shards[1]))
	}
	for lane := 0; lane < 2; lane++ {
		whole := full.Shards[lane][0]
		for cut := 0; cut <= len(whole); cut++ {
			set := &SegmentSet{Shards: map[int][][]byte{
				0: {full.Shards[0][0]},
				1: {full.Shards[1][0]},
			}}
			set.Shards[lane] = [][]byte{whole[:cut]}
			st, rep, err := RecoverSegmented(set, nil)
			if err != nil {
				t.Fatalf("lane %d cut %d: %v", lane, cut, err)
			}
			snap := st.Snapshot()
			x, y := snap["x"], snap["y"]
			// Truncating the dependent lane (1) can only lose y-commits;
			// truncating lane 0 mid-frame engages the cut, which must drag
			// y back below x. A clean-boundary truncation of lane 0 is
			// indistinguishable from "those frames were never appended"
			// (an fsynced, acknowledged commit cannot sit in a lost clean
			// suffix), so no cut applies and only phantom checks hold.
			if lane == 1 || rep.Shards[lane].Damaged {
				if y > x {
					t.Fatalf("lane %d cut %d: y=%d > x=%d (report: %s)", lane, cut, y, x, rep)
				}
			}
			if x < 0 || x > 10 || y < 0 || y > 10 {
				t.Fatalf("lane %d cut %d: phantom values x=%d y=%d", lane, cut, x, y)
			}
		}
	}
}
