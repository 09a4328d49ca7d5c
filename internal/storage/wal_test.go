package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// singleFileLog frames records the way the single-file writer older
// builds had did: [size u32][crc u32] around the record encoding the
// segment frames still use. Nothing outside tests writes this format;
// the decoder tests here and in wal_fuzz_test.go are fed by it.
func singleFileLog(recs ...WALRecord) []byte {
	var out []byte
	for _, rec := range recs {
		payload := encodeWALRecord(rec, nil)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, walTable))
		out = append(out, payload...)
	}
	return out
}

func TestWALAppendReadRoundTrip(t *testing.T) {
	records := []WALRecord{
		{Kind: WALBegin, Instance: 1},
		{Kind: WALWrite, Instance: 1, Object: "x", Value: 42},
		{Kind: WALWrite, Instance: 1, Object: "acct_3_1", Value: -7},
		{Kind: WALCommit, Instance: 1},
		{Kind: WALBegin, Instance: 2},
		{Kind: WALAbort, Instance: 2},
	}
	got, rep, err := ScanWAL(bytes.NewReader(singleFileLog(records...)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tail != TailClean {
		t.Fatalf("whole log scanned to a %s tail: %s", rep.Tail, rep.Detail)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], records[i])
		}
	}
}

func TestWALRecoverAppliesOnlyCommitted(t *testing.T) {
	seq := []WALRecord{
		{Kind: WALBegin, Instance: 1},
		{Kind: WALBegin, Instance: 2},
		{Kind: WALWrite, Instance: 1, Object: "x", Value: 10},
		{Kind: WALWrite, Instance: 2, Object: "y", Value: 20},
		{Kind: WALCommit, Instance: 1},
		{Kind: WALAbort, Instance: 2},
		{Kind: WALBegin, Instance: 3},
		{Kind: WALWrite, Instance: 3, Object: "z", Value: 30},
		// instance 3 never commits: crash before commit record
	}
	st, report, err := Recover(bytes.NewReader(singleFileLog(seq...)), map[string]Value{"x": 1, "y": 2, "z": 3})
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
	if report.Committed != 1 || report.Aborted != 1 || report.Unfinished != 1 {
		t.Errorf("report = %s", report)
	}
}

func TestWALTornTail(t *testing.T) {
	full := singleFileLog(
		WALRecord{Kind: WALBegin, Instance: 1},
		WALRecord{Kind: WALWrite, Instance: 1, Object: "x", Value: 5},
		WALRecord{Kind: WALCommit, Instance: 1},
		WALRecord{Kind: WALBegin, Instance: 2},
		WALRecord{Kind: WALWrite, Instance: 2, Object: "x", Value: 99},
		WALRecord{Kind: WALCommit, Instance: 2},
	)
	// Truncate mid-way through the last record: recovery must keep the
	// valid prefix and drop instance 2's commit (or more).
	for cut := len(full) - 1; cut > len(full)-12; cut-- {
		st, _, err := Recover(bytes.NewReader(full[:cut]), map[string]Value{"x": 1})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := st.Read("x").Value; got != 5 {
			t.Errorf("cut %d: x = %d, want instance 1's committed 5", cut, got)
		}
	}
}

func TestWALCorruptRecordEndsPrefix(t *testing.T) {
	data := singleFileLog(
		WALRecord{Kind: WALBegin, Instance: 1},
		WALRecord{Kind: WALWrite, Instance: 1, Object: "x", Value: 5},
		WALRecord{Kind: WALCommit, Instance: 1},
	)
	// Flip a payload byte of the middle record.
	data[15] ^= 0xff
	records, _, err := ScanWAL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) >= 3 {
		t.Errorf("corrupt record accepted: %d records", len(records))
	}
}

func TestWALOrphanWrites(t *testing.T) {
	log := singleFileLog(
		WALRecord{Kind: WALWrite, Instance: 9, Object: "x", Value: 1}, // no begin
		WALRecord{Kind: WALCommit, Instance: 9},
	)
	st, report, err := Recover(bytes.NewReader(log), nil)
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

func TestWALEmptyLog(t *testing.T) {
	st, report, err := Recover(bytes.NewReader(nil), map[string]Value{"a": 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Read("a").Value != 7 || report.Records != 0 {
		t.Error("empty log should yield the initial snapshot")
	}
}
