package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// sampleWAL builds a small multi-transaction log and returns its bytes
// and decoded records.
func sampleWAL(t testing.TB) ([]byte, []WALRecord) {
	t.Helper()
	recs := []WALRecord{
		{Kind: WALBegin, Instance: 1},
		{Kind: WALWrite, Instance: 1, Object: "x", Value: 10},
		{Kind: WALWrite, Instance: 1, Object: "a_longer_object_name", Value: -7},
		{Kind: WALBegin, Instance: 2},
		{Kind: WALWrite, Instance: 2, Object: "y", Value: 1 << 40},
		{Kind: WALCommit, Instance: 1},
		{Kind: WALAbort, Instance: 2},
	}
	return singleFileLog(recs...), recs
}

func recordsEqual(a, b WALRecord) bool {
	return a.Kind == b.Kind && a.Instance == b.Instance && a.Object == b.Object && a.Value == b.Value
}

// requirePrefix asserts that got is a prefix of the original records —
// damage may shorten the log but must never invent or alter a record.
func requirePrefix(t *testing.T, label string, got, want []WALRecord) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: decoded %d records from a log of %d", label, len(got), len(want))
	}
	for i := range got {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("%s: phantom record at %d: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWALTruncationNeverPhantom cuts the log at every byte offset:
// every truncation must decode to a strict prefix of the original
// records, classified clean exactly at record boundaries.
func TestWALTruncationNeverPhantom(t *testing.T) {
	full, recs := sampleWAL(t)
	boundaries := map[int]bool{0: true}
	{
		off := 0
		rest := full
		for len(rest) > 0 {
			size := int(uint32(rest[0]) | uint32(rest[1])<<8 | uint32(rest[2])<<16 | uint32(rest[3])<<24)
			off += 8 + size
			boundaries[off] = true
			rest = full[off:]
		}
	}
	for cut := 0; cut <= len(full); cut++ {
		got, rep, err := ScanWAL(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		requirePrefix(t, fmt.Sprintf("cut %d", cut), got, recs)
		if boundaries[cut] {
			if rep.Tail != TailClean {
				t.Fatalf("cut %d is a boundary but tail = %s (%s)", cut, rep.Tail, rep.Detail)
			}
		} else if rep.Tail != TailTorn {
			t.Fatalf("cut %d is mid-record but tail = %s (%s)", cut, rep.Tail, rep.Detail)
		}
		if rep.Records != len(got) {
			t.Fatalf("cut %d: report says %d records, scan returned %d", cut, rep.Records, len(got))
		}
	}
}

// TestWALBitflipNeverPhantom flips every bit of the log in turn: the
// scan must never panic and never return anything but a prefix of the
// original records.
func TestWALBitflipNeverPhantom(t *testing.T) {
	full, recs := sampleWAL(t)
	for i := 0; i < len(full)*8; i++ {
		mut := append([]byte(nil), full...)
		mut[i/8] ^= 1 << (i % 8)
		got, rep, err := ScanWAL(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		requirePrefix(t, fmt.Sprintf("bit %d", i), got, recs)
		if len(got) == len(recs) && rep.Tail != TailClean {
			t.Fatalf("bit %d: full decode but tail %s", i, rep.Tail)
		}
		if len(got) < len(recs) && rep.Tail == TailClean {
			t.Fatalf("bit %d: lost records but tail clean", i)
		}
	}
}

// FuzzWALDecode throws arbitrary bytes at the scanner: it must never
// panic, and what it returns must be internally consistent.
func FuzzWALDecode(f *testing.F) {
	full, _ := sampleWAL(f)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	mut := append([]byte(nil), full...)
	mut[9] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rep, err := ScanWAL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory scan errored: %v", err)
		}
		if rep.Records != len(recs) {
			t.Fatalf("report %d records vs %d returned", rep.Records, len(recs))
		}
		if rep.Offset < 0 || rep.Offset > int64(len(data)) {
			t.Fatalf("offset %d outside log of %d bytes", rep.Offset, len(data))
		}
		for i, rec := range recs {
			if rec.Kind < WALBegin || rec.Kind > WALAbort {
				t.Fatalf("record %d has invalid kind %d", i, rec.Kind)
			}
		}
		// Recovery over whatever the scan accepted must not panic either.
		if _, _, err := Recover(bytes.NewReader(data), nil); err != nil {
			t.Fatalf("recover: %v", err)
		}
	})
}

// TestScanWALCorruptLength: a complete frame with an implausible
// length is damage (corrupt), not a torn tail.
func TestScanWALCorruptLength(t *testing.T) {
	full, recs := sampleWAL(t)
	mut := append(append([]byte(nil), full...), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4)
	got, rep, err := ScanWAL(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	requirePrefix(t, "implausible length", got, recs)
	if len(got) != len(recs) || rep.Tail != TailCorrupt {
		t.Fatalf("got %d records, tail %s", len(got), rep.Tail)
	}
	if rep.Offset != int64(len(full)) {
		t.Fatalf("bad-record offset %d, want %d", rep.Offset, len(full))
	}
}

// FuzzSegmentDecode feeds arbitrary bytes to the segment scanner (and
// the segmented recovery on top of it): no input may panic, report
// counters must match the decoded records, and GSNs must come out
// strictly increasing.
func FuzzSegmentDecode(f *testing.F) {
	full, _ := sampleSegment(f)
	f.Add(full)
	f.Add(full[:SegmentHeaderSize])
	f.Add(full[:SegmentHeaderSize+5])
	f.Add(full[:10])
	f.Add([]byte{})
	flipped := append([]byte(nil), full...)
	flipped[SegmentHeaderSize+segFrameHeaderSize+3] ^= 0x20
	f.Add(flipped)
	huge := append([]byte(nil), full...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, rep, err := ScanSegment(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ScanSegment returned a real error on bytes: %v", err)
		}
		if rep.Records != len(recs) {
			t.Fatalf("report says %d records, scan returned %d", rep.Records, len(recs))
		}
		if len(recs) > 0 && rep.Tail == TailClean && rep.Offset == 0 {
			t.Fatal("records decoded but offset never advanced")
		}
		last := hdr.BaseGSN
		for i, r := range recs {
			if r.GSN <= last {
				t.Fatalf("record %d: GSN %d not above %d", i, r.GSN, last)
			}
			last = r.GSN
		}
		// Segmented recovery over the same bytes must also be total.
		set := &SegmentSet{Shards: map[int][][]byte{0: {data}}}
		if _, _, err := RecoverSegmented(set, map[string]Value{"seed": 1}); err != nil {
			t.Fatalf("RecoverSegmented: %v", err)
		}
	})
}

// FuzzSnapshotDecode: arbitrary bytes never panic the snapshot
// decoder, and anything that decodes re-encodes to the same content.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(EncodeSnapshot(7, map[string]Value{"x": 1, "y": -2}))
	f.Add(EncodeSnapshot(0, nil))
	f.Add([]byte{})
	f.Add([]byte("RSNP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gsn, snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		gsn2, snap2, err := DecodeSnapshot(EncodeSnapshot(gsn, snap))
		if err != nil || gsn2 != gsn || len(snap2) != len(snap) {
			t.Fatalf("re-encode round trip broke: gsn %d->%d, %d->%d entries, err %v",
				gsn, gsn2, len(snap), len(snap2), err)
		}
		for k, v := range snap {
			if snap2[k] != v {
				t.Fatalf("entry %q: %d != %d", k, snap2[k], v)
			}
		}
	})
}
