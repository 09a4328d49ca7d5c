package record

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"relser/internal/storage"
)

// Encode serializes the recording. The artifact is valid even when the
// run never finished (no outcome frame yet); Decode rejects such a
// truncated recording as unreadable, which is the right verdict for a
// replay baseline.
func (r *Recorder) Encode() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]byte, 0, 4096)
	out = append(out, recMagic...)
	out = append(out, recVersion, 0, 0, 0)
	out = appendFrame(out, frameManifest, mustJSON(r.m))
	out = appendFrame(out, frameSnapshot, storage.EncodeSnapshot(0, r.initial))
	for _, ev := range r.stages {
		out = appendFrame(out, frameStage, mustJSON(ev))
	}
	if r.outcome != nil {
		out = appendFrame(out, frameOutcome, mustJSON(*r.outcome))
	}
	r.framesC.Add(int64(2 + len(r.stages) + btoi(r.outcome != nil)))
	r.bytesC.Add(int64(len(out)))
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteFile encodes the recording and writes it atomically enough for
// our purposes: to a temp file in place, then rename, so a crash
// mid-write never leaves a half-artifact under the final name.
func (r *Recorder) WriteFile(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, r.Encode(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All frame payload types are plain structs of scalars, maps and
		// slices; marshalling cannot fail for them.
		panic(fmt.Sprintf("record: marshal: %v", err))
	}
	return b
}

func appendFrame(out []byte, typ byte, body []byte) []byte {
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, typ)
	payload = append(payload, body...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// Recording is a decoded .rsrec artifact.
type Recording struct {
	Manifest Manifest
	// Initial is the anchoring snapshot of the store state the run
	// started from.
	Initial map[string]storage.Value
	Stages  []StageEvent
	Outcome Outcome
}

// ReadFile loads and decodes an artifact; decode failures name the
// file.
func ReadFile(path string) (*Recording, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreadable, err)
	}
	rec, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// Decode parses an artifact. Every failure wraps ErrUnreadable with a
// diagnosis of what broke (magic, version, frame offset + cause,
// missing mandatory frame).
func Decode(b []byte) (*Recording, error) {
	if len(b) < headerSize || string(b[:4]) != recMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrUnreadable)
	}
	if b[4] != recVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrUnreadable, b[4], recVersion)
	}
	rec := &Recording{}
	var sawManifest, sawSnapshot, sawOutcome bool
	off := headerSize
	for off < len(b) {
		payload, next, err := scanFrame(b, off)
		if err != nil {
			return nil, fmt.Errorf("%w: frame at offset %d: %v", ErrUnreadable, off, err)
		}
		typ, body := payload[0], payload[1:]
		switch typ {
		case frameManifest:
			if err := json.Unmarshal(body, &rec.Manifest); err != nil {
				return nil, fmt.Errorf("%w: manifest frame: %v", ErrUnreadable, err)
			}
			sawManifest = true
		case frameSnapshot:
			_, snap, err := storage.DecodeSnapshot(body)
			if err != nil {
				return nil, fmt.Errorf("%w: snapshot frame: %v", ErrUnreadable, err)
			}
			rec.Initial = snap
			sawSnapshot = true
		case frameStage:
			var ev StageEvent
			if err := json.Unmarshal(body, &ev); err != nil {
				return nil, fmt.Errorf("%w: stage frame: %v", ErrUnreadable, err)
			}
			rec.Stages = append(rec.Stages, ev)
		case frameOutcome:
			if err := json.Unmarshal(body, &rec.Outcome); err != nil {
				return nil, fmt.Errorf("%w: outcome frame: %v", ErrUnreadable, err)
			}
			sawOutcome = true
		default:
			return nil, fmt.Errorf("%w: unknown frame type %d at offset %d", ErrUnreadable, typ, off)
		}
		off = next
	}
	switch {
	case !sawManifest:
		return nil, fmt.Errorf("%w: no manifest frame", ErrUnreadable)
	case !sawSnapshot:
		return nil, fmt.Errorf("%w: no snapshot frame", ErrUnreadable)
	case !sawOutcome:
		return nil, fmt.Errorf("%w: no outcome frame (run never finished)", ErrUnreadable)
	}
	return rec, nil
}

// scanFrame decodes one [size][crc][payload] frame at off, returning
// the payload and the next offset. A frame whose declared size runs
// past the buffer, or whose checksum disagrees, is damage — never
// silently reinterpreted.
func scanFrame(b []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(b) {
		return nil, 0, fmt.Errorf("truncated header (%d of 8 bytes)", len(b)-off)
	}
	size := binary.LittleEndian.Uint32(b[off : off+4])
	sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
	if size == 0 {
		return nil, 0, fmt.Errorf("zero-length frame")
	}
	if uint64(off)+8+uint64(size) > uint64(len(b)) {
		return nil, 0, fmt.Errorf("truncated payload (%d of %d bytes)", len(b)-off-8, size)
	}
	payload = b[off+8 : off+8+int(size)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, fmt.Errorf("checksum mismatch")
	}
	return payload, off + 8 + int(size), nil
}
