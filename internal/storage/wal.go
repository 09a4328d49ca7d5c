package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file holds the write-ahead log's record model: the record kinds,
// their encoding (which segment frames wrap, segment.go) and the
// classification of how a scan ended. The paper's theory does not
// require durability, but the execution side of the reproduction is
// meant to be adoptable as a small transactional engine, and recovery
// interacts with the runtime's abort machinery (only committed
// transactions' effects survive a crash). The one log is ShardedWAL
// (groupcommit.go); RecoverSegmented (recover.go) reads it back.

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
