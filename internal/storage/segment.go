package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Segment format (the segmented WAL, DESIGN.md §5.4; the shard field
// is always 0, the log's one lane):
//
//	header  [magic "RSEG"][version u8][pad u8][shard u16][index u32][baseGSN u64][crc u32]
//	frame*  [size u32][crc u32][gsn u64][record encoding, wal.go]
//
// All integers little-endian; both CRCs are CRC32-Castagnoli. The
// frame checksum covers the whole payload — GSN included — so a
// flipped sequence-number bit is damage, not a different record. GSNs
// are strictly increasing within the log and every record's GSN
// exceeds its segment's BaseGSN; a scan treats a violation as
// corruption (duplicated or replayed frames).

const (
	segMagic = "RSEG"

	segVersion = 1

	// SegmentHeaderSize is the fixed encoded size of a segment header.
	SegmentHeaderSize = 24

	// segFrameHeaderSize prefixes every record: payload size + CRC.
	segFrameHeaderSize = 8

	// segGSNSize leads every frame payload.
	segGSNSize = 8

	// maxSegPayload bounds a single frame payload; larger sizes are
	// classified corrupt rather than allocated.
	maxSegPayload = 1 << 20
)

// SegmentHeader identifies one segment of the log.
type SegmentHeader struct {
	// Shard is the lane the segment belongs to: always 0, the log's one
	// lane. Recovery treats any other value as corruption.
	Shard int
	// Index orders the log's segments; rotation publishes index k+1
	// after sealing index k.
	Index int
	// BaseGSN is the global sequence number the log had reached when
	// the segment was opened: every record inside carries a GSN
	// strictly greater than it.
	BaseGSN uint64
}

func encodeSegmentHeader(h SegmentHeader) []byte {
	buf := make([]byte, SegmentHeaderSize)
	copy(buf[0:4], segMagic)
	buf[4] = segVersion
	binary.LittleEndian.PutUint16(buf[6:8], uint16(h.Shard))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(h.Index))
	binary.LittleEndian.PutUint64(buf[12:20], h.BaseGSN)
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(buf[:20], walTable))
	return buf
}

// DecodeSegmentHeader validates magic, version and checksum.
func DecodeSegmentHeader(b []byte) (SegmentHeader, error) {
	var h SegmentHeader
	if len(b) < SegmentHeaderSize {
		return h, ErrCorrupt
	}
	if string(b[0:4]) != segMagic || b[4] != segVersion || b[5] != 0 {
		return h, ErrCorrupt
	}
	if crc32.Checksum(b[:20], walTable) != binary.LittleEndian.Uint32(b[20:24]) {
		return h, ErrCorrupt
	}
	h.Shard = int(binary.LittleEndian.Uint16(b[6:8]))
	h.Index = int(binary.LittleEndian.Uint32(b[8:12]))
	h.BaseGSN = binary.LittleEndian.Uint64(b[12:20])
	return h, nil
}

// SegmentRecord pairs a decoded record with its sequence number.
type SegmentRecord struct {
	GSN uint64
	Rec WALRecord
}

// appendSegFrame appends one framed record to buf: the 8-byte frame
// header followed by the payload (GSN + record encoding).
func appendSegFrame(buf []byte, gsn uint64, rec WALRecord) []byte {
	base := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, gsn)
	buf = encodeWALRecord(rec, buf)
	payload := buf[base+segFrameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[base:base+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[base+4:base+8], crc32.Checksum(payload, walTable))
	return buf
}

// ScanSegment decodes one segment: the header, then framed records
// until EOF or the first damaged frame. Torn and corrupt tails are
// what crash recovery exists for, so they are reported, not returned
// as errors; err is only a real read failure. A segment whose header
// is incomplete scans as zero records with a torn tail (the crash hit
// before the first frame); a header that fails its checksum scans
// corrupt.
func ScanSegment(r io.Reader) (SegmentHeader, []SegmentRecord, ScanReport, error) {
	br := bufio.NewReader(r)
	var hdr SegmentHeader
	var rep ScanReport
	head := make([]byte, SegmentHeaderSize)
	if n, err := io.ReadFull(br, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			rep.Tail = TailTorn
			rep.Detail = fmt.Sprintf("partial segment header (%d of %d bytes)", n, SegmentHeaderSize)
			return hdr, nil, rep, nil
		}
		return hdr, nil, rep, err
	}
	h, err := DecodeSegmentHeader(head)
	if err != nil {
		rep.Tail = TailCorrupt
		rep.Detail = "segment header magic or checksum mismatch"
		return hdr, nil, rep, nil
	}
	hdr = h
	var out []SegmentRecord
	off := int64(SegmentHeaderSize)
	last := hdr.BaseGSN
	for {
		rep.Offset = off
		var frame [segFrameHeaderSize]byte
		n, err := io.ReadFull(br, frame[:])
		if err != nil {
			if errors.Is(err, io.EOF) && n == 0 {
				rep.Tail = TailClean
				return hdr, out, rep, nil
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rep.Tail = TailTorn
				rep.Detail = fmt.Sprintf("partial frame header (%d of %d bytes)", n, segFrameHeaderSize)
				return hdr, out, rep, nil
			}
			return hdr, out, rep, err
		}
		size := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if size > maxSegPayload || size < segGSNSize+1 {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("implausible payload length %d", size)
			return hdr, out, rep, nil
		}
		payload := make([]byte, size)
		if n, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rep.Tail = TailTorn
				rep.Detail = fmt.Sprintf("partial payload (%d of %d bytes)", n, size)
				return hdr, out, rep, nil
			}
			return hdr, out, rep, err
		}
		if crc32.Checksum(payload, walTable) != sum {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("checksum mismatch on record %d", rep.Records)
			return hdr, out, rep, nil
		}
		gsn := binary.LittleEndian.Uint64(payload[:segGSNSize])
		rec, err := decodeWALRecord(payload[segGSNSize:])
		if err != nil {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("checksum-valid record %d does not decode", rep.Records)
			return hdr, out, rep, nil
		}
		if gsn <= last {
			rep.Tail = TailCorrupt
			rep.Detail = fmt.Sprintf("GSN %d not increasing (previous %d) on record %d", gsn, last, rep.Records)
			return hdr, out, rep, nil
		}
		last = gsn
		out = append(out, SegmentRecord{GSN: gsn, Rec: rec})
		rep.Records++
		off += segFrameHeaderSize + int64(size)
	}
}
