package storage

import (
	"sort"
	"testing"
)

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

// TestRecoverSegmentedPrefixDependencyClean encodes a dependency chain —
// y is only advanced to k after x reached k — and sweeps EVERY byte
// prefix of the log: recovery must always produce a state some prefix
// of the run produced, x = y or x = y+1, never y > x.
func TestRecoverSegmentedPrefixDependencyClean(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		logTxn(t, w, int64(2*k-1), "x", Value(k))
		logTxn(t, w, int64(2*k), "y", Value(k))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Shards[0]) != 1 {
		t.Fatalf("want one segment, got %d", len(full.Shards[0]))
	}
	whole := full.Shards[0][0]
	for cut := 0; cut <= len(whole); cut++ {
		st, rep, err := RecoverSegmented(&SegmentSet{Shards: map[int][][]byte{0: {whole[:cut]}}}, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		snap := st.Snapshot()
		x, y := snap["x"], snap["y"]
		if x != y && x != y+1 || x < 0 || x > 10 {
			t.Fatalf("cut %d: x=%d y=%d is no prefix of the run (report: %s)", cut, x, y, rep)
		}
		if int(x+y) != rep.Committed {
			t.Fatalf("cut %d: x=%d y=%d after %d commits", cut, x, y, rep.Committed)
		}
	}
}

// TestRecoverSegmentedFirstDamagedDeterministic damages two segments of
// a rotated log in different ways: segment 1 torn mid-frame, segment 2
// bit-flipped. Recovery reports the first damage in chain order — a
// torn tail in segment 1 — on every run, ignores the segments after it,
// and keeps exactly the commits before the tear.
func TestRecoverSegmentedFirstDamagedDeterministic(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewShardedWAL(mem, SegmentedOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 12; id++ {
		logTxn(t, w, id, "x", Value(id))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := mem.SegmentSet()
	if err != nil {
		t.Fatal(err)
	}
	segs := set.Shards[0]
	if len(segs) < 4 {
		t.Fatalf("want at least 4 segments, got %d", len(segs))
	}
	bounds := sortedBoundaries(segs[1])
	torn := bounds[len(bounds)-2] + 3
	segs[1] = segs[1][:torn]
	flip := append([]byte(nil), segs[2]...)
	flip[SegmentHeaderSize+segFrameHeaderSize+2] ^= 0x10
	segs[2] = flip

	_, clean, err := RecoverSegmented(&SegmentSet{Shards: map[int][][]byte{0: segs[:1]}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st, rep, err := RecoverSegmented(set, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tail.Tail != TailTorn || rep.TailSegment != 1 || rep.Tail.Offset != int64(bounds[len(bounds)-2]) {
			t.Fatalf("run %d: tail %+v in segment %d, want torn in segment 1 at %d", i, rep.Tail, rep.TailSegment, bounds[len(bounds)-2])
		}
		if rep.DroppedSegments != len(segs)-2 || rep.Segments != 2 {
			t.Fatalf("run %d: %d segments scanned, %d dropped; want 2 and %d", i, rep.Segments, rep.DroppedSegments, len(segs)-2)
		}
		if got := st.Snapshot()["x"]; rep.Committed < clean.Committed || got != Value(rep.Committed) {
			t.Fatalf("run %d: x=%d after %d commits (segment 0 alone holds %d)", i, got, rep.Committed, clean.Committed)
		}
	}
}
