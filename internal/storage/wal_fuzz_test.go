package storage

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALDecode throws arbitrary payloads at the record decoder every
// checksum-valid segment frame reaches: it must never panic, and
// whatever decodes must survive an encode/decode round trip unchanged.
func FuzzWALDecode(f *testing.F) {
	_, recs := sampleSegment(f)
	for _, rec := range recs {
		f.Add(encodeWALRecord(rec, nil))
	}
	f.Add([]byte{byte(WALAbort) + 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		if rec.Kind < WALBegin || rec.Kind > WALAbort {
			t.Fatalf("decoded invalid kind %d", rec.Kind)
		}
		again, err := decodeWALRecord(encodeWALRecord(rec, nil))
		if err != nil || again != rec {
			t.Fatalf("round trip: %+v -> %+v (err %v)", rec, again, err)
		}
	})
}

// TestScanSegmentCorruptLength: a complete frame header whose payload
// length is above the bound or below the GSN plus one record byte is
// damage (corrupt), not a torn tail, and the report points at it.
func TestScanSegmentCorruptLength(t *testing.T) {
	full, recs := sampleSegment(t)
	for _, size := range []uint32{maxSegPayload + 1, segGSNSize} {
		mut := binary.LittleEndian.AppendUint32(append([]byte(nil), full...), size)
		mut = append(mut, 1, 2, 3, 4)
		_, got, rep, err := ScanSegment(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) || rep.Tail != TailCorrupt {
			t.Fatalf("size %d: got %d records, tail %s", size, len(got), rep.Tail)
		}
		if rep.Offset != int64(len(full)) {
			t.Fatalf("size %d: bad-frame offset %d, want %d", size, rep.Offset, len(full))
		}
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
		if _, _, err := RecoverSegmented(oneLane(data), map[string]Value{"seed": 1}); err != nil {
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
