package storage

import (
	"bytes"
	"maps"
	"testing"
)

// oneLane wraps one lane's single segment as a crash image.
func oneLane(seg []byte) *SegmentSet {
	return &SegmentSet{Shards: map[int][][]byte{0: {seg}}}
}

// TestWALAppendReadRoundTrip: every record kind framed into a segment
// reads back unchanged, in order, at consecutive GSNs, with a clean
// tail.
func TestWALAppendReadRoundTrip(t *testing.T) {
	records := []WALRecord{
		{Kind: WALBegin, Instance: 1},
		{Kind: WALWrite, Instance: 1, Object: "x", Value: 42},
		{Kind: WALWrite, Instance: 1, Object: "acct_3_1", Value: -7},
		{Kind: WALCommit, Instance: 1},
		{Kind: WALBegin, Instance: 2},
		{Kind: WALAbort, Instance: 2},
	}
	_, got, rep, err := ScanSegment(bytes.NewReader(segmentOf(records...)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tail != TailClean || rep.Records != len(records) {
		t.Fatalf("whole segment scanned to a %s tail after %d records: %s", rep.Tail, rep.Records, rep.Detail)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i].Rec != records[i] || got[i].GSN != uint64(i+1) {
			t.Errorf("record %d = %+v, want %+v at GSN %d", i, got[i], records[i], i+1)
		}
	}
}

func TestWALRecoverAppliesOnlyCommitted(t *testing.T) {
	seg := segmentOf(
		WALRecord{Kind: WALBegin, Instance: 1},
		WALRecord{Kind: WALBegin, Instance: 2},
		WALRecord{Kind: WALWrite, Instance: 1, Object: "x", Value: 10},
		WALRecord{Kind: WALWrite, Instance: 2, Object: "y", Value: 20},
		WALRecord{Kind: WALCommit, Instance: 1},
		WALRecord{Kind: WALAbort, Instance: 2},
		WALRecord{Kind: WALBegin, Instance: 3},
		WALRecord{Kind: WALWrite, Instance: 3, Object: "z", Value: 30},
		// instance 3 never commits: crash before commit record
	)
	st, report, err := RecoverSegmented(oneLane(seg), map[string]Value{"x": 1, "y": 2, "z": 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Read("x").Value != 10 {
		t.Error("committed write lost")
	}
	if st.Read("y").Value != 2 {
		t.Error("aborted write applied")
	}
	if st.Read("z").Value != 3 {
		t.Error("unfinished write applied")
	}
	if report.Committed != 1 || report.Aborted != 1 || report.Unfinished != 1 || report.Records != 8 {
		t.Errorf("report = %s", report)
	}
}

// TestWALTornTail tears the last commit frame at several offsets:
// recovery keeps the valid prefix, drops only instance 2's commit, and
// classifies the lane torn.
func TestWALTornTail(t *testing.T) {
	full := segmentOf(
		WALRecord{Kind: WALBegin, Instance: 1},
		WALRecord{Kind: WALWrite, Instance: 1, Object: "x", Value: 5},
		WALRecord{Kind: WALCommit, Instance: 1},
		WALRecord{Kind: WALBegin, Instance: 2},
		WALRecord{Kind: WALWrite, Instance: 2, Object: "x", Value: 99},
		WALRecord{Kind: WALCommit, Instance: 2},
	)
	bounds := sortedBoundaries(full)
	for cut := bounds[len(bounds)-2] + 1; cut < len(full); cut++ {
		st, rep, err := RecoverSegmented(oneLane(full[:cut]), map[string]Value{"x": 1})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := st.Read("x").Value; got != 5 {
			t.Errorf("cut %d: x = %d, want instance 1's committed 5", cut, got)
		}
		if rep.Tail.Tail != TailTorn || rep.Tail.Offset != int64(bounds[len(bounds)-2]) {
			t.Errorf("cut %d: want a torn tail at the last frame, got %s", cut, rep)
		}
		if rep.Committed != 1 || rep.Unfinished != 1 {
			t.Errorf("cut %d: report = %s", cut, rep)
		}
	}
}

// TestWALCorruptRecordEndsPrefix flips a payload byte of the middle
// record: the scan keeps exactly the record before it, classifies the
// tail corrupt (not torn) and points at the damaged frame.
func TestWALCorruptRecordEndsPrefix(t *testing.T) {
	data := segmentOf(
		WALRecord{Kind: WALBegin, Instance: 1},
		WALRecord{Kind: WALWrite, Instance: 1, Object: "x", Value: 5},
		WALRecord{Kind: WALCommit, Instance: 1},
	)
	bounds := sortedBoundaries(data) // 0, header, then one end per frame
	data[bounds[3]-1] ^= 0xff
	_, records, rep, err := ScanSegment(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || rep.Tail != TailCorrupt || rep.Offset != int64(bounds[2]) {
		t.Errorf("corrupt middle record: %d records, tail %s at %d (want 1, corrupt at %d)",
			len(records), rep.Tail, rep.Offset, bounds[2])
	}
}

func TestWALOrphanWrites(t *testing.T) {
	seg := segmentOf(
		WALRecord{Kind: WALWrite, Instance: 9, Object: "x", Value: 1}, // no begin
		WALRecord{Kind: WALCommit, Instance: 9},
	)
	st, report, err := RecoverSegmented(oneLane(seg), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Orphans != 1 {
		t.Errorf("Orphans = %d", report.Orphans)
	}
	if st.Read("x").Value != 0 {
		t.Error("orphan write applied")
	}
}

func TestWALRecordKindString(t *testing.T) {
	for k, want := range map[WALRecordKind]string{
		WALBegin: "begin", WALWrite: "write", WALCommit: "commit", WALAbort: "abort",
		WALRecordKind(9): "WALRecordKind(9)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// TestWALEmptyLog: a log with no lanes and a lane holding only its
// segment header both recover cleanly to exactly the initial values.
func TestWALEmptyLog(t *testing.T) {
	for name, set := range map[string]*SegmentSet{"no lanes": {}, "header only": oneLane(segmentOf())} {
		st, report, err := RecoverSegmented(set, map[string]Value{"a": 7})
		if err != nil {
			t.Fatal(err)
		}
		if !report.Clean() || report.Records != 0 {
			t.Errorf("%s: %s", name, report)
		}
		if snap := st.Snapshot(); !maps.Equal(snap, map[string]Value{"a": 7}) {
			t.Errorf("%s: recovered %v, want the initial values", name, snap)
		}
	}
}

// sampleStates returns what recovering sampleSegment over x=1, y=2
// may yield: the initial values, or those plus instance 1's commit.
// Instance 2 aborts, so y=1<<40 is never a legal outcome.
func sampleStates() (before, after map[string]Value) {
	before = map[string]Value{"x": 1, "y": 2}
	after = map[string]Value{"x": 10, "y": 2, "a_longer_object_name": -7}
	return before, after
}

// TestWALTruncationNeverPhantom recovers every byte-prefix of a
// segment: the store holds instance 1's writes exactly when its commit
// frame is whole, and never anything else.
func TestWALTruncationNeverPhantom(t *testing.T) {
	full, _ := sampleSegment(t)
	commitEnd := sortedBoundaries(full)[7] // 0, header, then 7 frames; commit is the 6th
	before, after := sampleStates()
	for cut := 0; cut <= len(full); cut++ {
		st, rep, err := RecoverSegmented(oneLane(full[:cut]), before)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := before
		if cut >= commitEnd {
			want = after
		}
		if snap := st.Snapshot(); !maps.Equal(snap, want) {
			t.Fatalf("cut %d: recovered %v, want %v (%s)", cut, snap, want, rep)
		}
	}
}

// TestWALBitflipNeverPhantom recovers the segment with every bit
// flipped in turn: the store is always one of the two legal states,
// and instance 1's writes survive only with its commit.
func TestWALBitflipNeverPhantom(t *testing.T) {
	full, _ := sampleSegment(t)
	before, after := sampleStates()
	for i := 0; i < len(full)*8; i++ {
		mut := append([]byte(nil), full...)
		mut[i/8] ^= 1 << (i % 8)
		st, rep, err := RecoverSegmented(oneLane(mut), before)
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		snap := st.Snapshot()
		if rep.Committed == 1 && !maps.Equal(snap, after) || rep.Committed == 0 && !maps.Equal(snap, before) || rep.Committed > 1 {
			t.Fatalf("bit %d: recovered %v (%s)", i, snap, rep)
		}
	}
}
