package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// This file holds the write-ahead log's record model and the read-only
// decoder of the single-file log format older builds wrote. The paper's
// theory does not require durability, but the execution side of the
// reproduction is meant to be adoptable as a small transactional
// engine, and recovery interacts with the runtime's abort machinery
// (only committed transactions' effects survive a crash).
//
// The one log writer is ShardedWAL (groupcommit.go), whose segment
// frames wrap the record encoding below. ScanWAL and Recover read the
// older format — frames of [size u32][crc u32][record], CRC32
// (Castagnoli) over the record — so rsrecover can still recover a file
// such a build left behind. Recovery replays the log in order,
// buffering each transaction's writes until its commit record; torn or
// corrupt tails are detected by the checksum and cleanly ignored, as
// are transactions with no commit record.

// WALRecordKind tags log records.
type WALRecordKind uint8

const (
	// WALBegin marks the start of a transaction instance.
	WALBegin WALRecordKind = iota + 1
	// WALWrite records one object write (object, value).
	WALWrite
	// WALCommit seals an instance; recovery applies its writes.
	WALCommit
	// WALAbort voids an instance; recovery discards its writes.
	WALAbort
)

// String names the kind.
func (k WALRecordKind) String() string {
	switch k {
	case WALBegin:
		return "begin"
	case WALWrite:
		return "write"
	case WALCommit:
		return "commit"
	case WALAbort:
		return "abort"
	default:
		return fmt.Sprintf("WALRecordKind(%d)", uint8(k))
	}
}

// WALRecord is one decoded log record.
type WALRecord struct {
	Kind     WALRecordKind
	Instance int64
	Object   string
	Value    Value
}

// ErrCorrupt reports a checksum or framing failure; recovery treats it
// as the end of the valid log prefix.
var ErrCorrupt = errors.New("storage: corrupt WAL record")

var walTable = crc32.MakeTable(crc32.Castagnoli)

func encodeWALRecord(rec WALRecord, buf []byte) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendVarint(buf, rec.Instance)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Object)))
	buf = append(buf, rec.Object...)
	buf = binary.AppendVarint(buf, int64(rec.Value))
	return buf
}

func decodeWALRecord(payload []byte) (WALRecord, error) {
	var rec WALRecord
	if len(payload) < 1 {
		return rec, ErrCorrupt
	}
	rec.Kind = WALRecordKind(payload[0])
	if rec.Kind < WALBegin || rec.Kind > WALAbort {
		return rec, ErrCorrupt
	}
	rest := payload[1:]
	inst, n := binary.Varint(rest)
	if n <= 0 {
		return rec, ErrCorrupt
	}
	rec.Instance = inst
	rest = rest[n:]
	olen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < olen {
		return rec, ErrCorrupt
	}
	rest = rest[n:]
	rec.Object = string(rest[:olen])
	rest = rest[olen:]
	val, n := binary.Varint(rest)
	if n <= 0 || n != len(rest) {
		return rec, ErrCorrupt
	}
	rec.Value = Value(val)
	return rec, nil
}

// TailState classifies how a WAL scan ended.
type TailState int

const (
	// TailClean: EOF exactly at a record boundary — the log is whole.
	TailClean TailState = iota
	// TailTorn: the log ends inside a record (partial frame header or
	// payload) — the expected shape of a crash mid-append.
	TailTorn
	// TailCorrupt: a complete record failed its checksum, carried an
	// implausible length, or would not decode — damage rather than a
	// clean tear.
	TailCorrupt
)

// String names the tail state.
func (t TailState) String() string {
	switch t {
	case TailClean:
		return "clean"
	case TailTorn:
		return "torn"
	case TailCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("TailState(%d)", int(t))
	}
}

// ScanReport describes where and how a WAL scan stopped.
type ScanReport struct {
	// Records is the number of valid records in the prefix.
	Records int
	// Tail classifies the stop; Offset is the byte offset of the first
	// bad record's frame (== total valid-prefix length), and Detail
	// explains what was found there.
	Tail   TailState
	Offset int64
	Detail string
}

// ScanWAL decodes a single-file log until EOF or the first damaged
// record, returning the valid prefix plus a report classifying the tail. Torn
// and corrupt tails are not errors — they are what crash recovery
// exists for — so err is only a real read failure.
func ScanWAL(r io.Reader) ([]WALRecord, ScanReport, error) {
	br := bufio.NewReader(r)
	var out []WALRecord
	var rep ScanReport
	var off int64
	for {
		rep.Offset = off
		var frame [8]byte
		n, err := io.ReadFull(br, frame[:])
		if err != nil {
			if errors.Is(err, io.EOF) && n == 0 {
				rep.Tail = TailClean
				return out, rep, nil
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rep.Tail = TailTorn
				rep.Detail = fmt.Sprintf("partial frame header (%d of 8 bytes)", n)
				return out, rep, nil
			}
			return out, rep, err
		}
		size := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if size > 1<<20 {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("implausible record length %d", size)
			return out, rep, nil
		}
		payload := make([]byte, size)
		if n, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rep.Tail = TailTorn
				rep.Detail = fmt.Sprintf("partial payload (%d of %d bytes)", n, size)
				return out, rep, nil
			}
			return out, rep, err
		}
		if crc32.Checksum(payload, walTable) != sum {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("checksum mismatch on record %d", rep.Records)
			return out, rep, nil
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("checksum-valid record %d does not decode", rep.Records)
			return out, rep, nil
		}
		out = append(out, rec)
		rep.Records++
		off += 8 + int64(size)
	}
}

// Recover rebuilds a store from a single-file log: writes of an instance are
// buffered from its begin record and applied in log order at its
// commit record; aborted or unfinished instances leave no trace. The
// initial snapshot supplies pre-log object values.
func Recover(r io.Reader, initial map[string]Value) (*Store, *RecoveryReport, error) {
	records, scan, err := ScanWAL(r)
	if err != nil {
		return nil, nil, err
	}
	st := NewStore()
	st.Load(initial)
	report := &RecoveryReport{Tail: scan}
	pending := make(map[int64][]pendingWrite)
	for _, rec := range records {
		report.Records++
		switch rec.Kind {
		case WALBegin:
			pending[rec.Instance] = nil
		case WALWrite:
			if _, ok := pending[rec.Instance]; !ok {
				report.Orphans++
				continue
			}
			pending[rec.Instance] = append(pending[rec.Instance], pendingWrite{rec.Object, rec.Value})
		case WALCommit:
			for _, w := range pending[rec.Instance] {
				st.Write(w.object, w.value)
			}
			delete(pending, rec.Instance)
			report.Committed++
		case WALAbort:
			delete(pending, rec.Instance)
			report.Aborted++
		}
	}
	report.Unfinished = len(pending)
	return st, report, nil
}

// RecoveryReport summarizes a recovery pass.
type RecoveryReport struct {
	Records    int
	Committed  int
	Aborted    int
	Unfinished int
	// Orphans counts write records whose instance never began (only
	// possible with a mangled log).
	Orphans int
	// Tail carries the scan's tail classification: how (and where) the
	// log ended.
	Tail ScanReport
}

// String renders the report.
func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("recovered %d records: %d committed, %d aborted, %d unfinished, %d orphans",
		r.Records, r.Committed, r.Aborted, r.Unfinished, r.Orphans)
	if r.Tail.Tail != TailClean {
		s += fmt.Sprintf(" (%s tail at offset %d: %s)", r.Tail.Tail, r.Tail.Offset, r.Tail.Detail)
	}
	return s
}
