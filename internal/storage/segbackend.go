package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// SegmentFile is one writable segment of a shard's log.
type SegmentFile interface {
	Write(p []byte) (int, error)
	// Sync makes everything written so far durable; the group-commit
	// protocol issues exactly one Sync per drained batch.
	Sync() error
	Close() error
}

// SegmentBackend stores the segments of a segmented WAL.
// Implementations must keep a created segment invisible to recovery
// until Publish: the rotation protocol writes and syncs the header of
// segment k+1 before publishing it, so a crash in between leaves an
// unpublished file recovery soundly ignores.
type SegmentBackend interface {
	// Create opens shard's segment index for writing, hidden.
	Create(shard, index int) (SegmentFile, error)
	// Publish makes a created segment visible under its final name.
	Publish(shard, index int) error
}

// SegmentSet is a segmented log spread out for recovery: per-shard
// published segment bytes in index order. Crash sweeps build these
// directly from truncated byte slices; ReadWALDir builds one from a
// DirBackend directory.
type SegmentSet struct {
	Shards map[int][][]byte
	// Unpublished counts segment files ignored because a crash hit
	// between rotation and publish (.tmp leftovers).
	Unpublished int
}

// Snapshot encoding (the .rsrec anchor frame, record/codec.go):
//
//	[magic "RSNP"][version u8][pad3][gsn u64][count u32]
//	count * { [olen uvarint][object][value varint] }   (sorted by object)
//	[crc u32]  over everything before it
const (
	snapMagic   = "RSNP"
	snapVersion = 1
)

// EncodeSnapshot serializes a store snapshot covering commits with
// GSN <= gsn. The encoding is deterministic (objects sorted).
func EncodeSnapshot(gsn uint64, snap map[string]Value) []byte {
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 16+len(names)*16)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, gsn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, k := range names {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendVarint(buf, int64(snap[k]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, walTable))
	return buf
}

// DecodeSnapshot validates and decodes an encoded snapshot.
func DecodeSnapshot(b []byte) (uint64, map[string]Value, error) {
	if len(b) < 24 {
		return 0, nil, ErrCorrupt
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, walTable) != sum {
		return 0, nil, ErrCorrupt
	}
	if string(body[0:4]) != snapMagic || body[4] != snapVersion {
		return 0, nil, ErrCorrupt
	}
	gsn := binary.LittleEndian.Uint64(body[8:16])
	count := binary.LittleEndian.Uint32(body[16:20])
	rest := body[20:]
	snap := make(map[string]Value, count)
	for i := uint32(0); i < count; i++ {
		olen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < olen {
			return 0, nil, ErrCorrupt
		}
		rest = rest[n:]
		name := string(rest[:olen])
		rest = rest[olen:]
		val, n := binary.Varint(rest)
		if n <= 0 {
			return 0, nil, ErrCorrupt
		}
		rest = rest[n:]
		snap[name] = Value(val)
	}
	if len(rest) != 0 {
		return 0, nil, ErrCorrupt
	}
	return gsn, snap, nil
}

// DirBackend lays a segmented log out on disk:
//
//	dir/shard-NN/seg-NNNNNN.wal       published segments
//	dir/shard-NN/seg-NNNNNN.wal.tmp   created, not yet published
type DirBackend struct {
	dir string
}

// NewDirBackend returns a backend rooted at dir (created on demand).
func NewDirBackend(dir string) *DirBackend { return &DirBackend{dir: dir} }

func (b *DirBackend) shardDir(s int) string {
	return filepath.Join(b.dir, fmt.Sprintf("shard-%02d", s))
}

func segFileName(index int) string { return fmt.Sprintf("seg-%06d.wal", index) }

// Create opens shard's segment under a .tmp name.
func (b *DirBackend) Create(shard, index int) (SegmentFile, error) {
	dir := b.shardDir(shard)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, segFileName(index)+".tmp"))
}

// Publish renames the .tmp segment to its final name.
func (b *DirBackend) Publish(shard, index int) error {
	name := filepath.Join(b.shardDir(shard), segFileName(index))
	return os.Rename(name+".tmp", name)
}

// Reset wipes the backend's own namespace (shard-* directories) so a
// fresh log can be written. Foreign files in dir are left alone.
func (b *DirBackend) Reset() error {
	entries, err := os.ReadDir(b.dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if name := e.Name(); e.IsDir() && strings.HasPrefix(name, "shard-") {
			if err := os.RemoveAll(filepath.Join(b.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadWALDir loads a DirBackend directory into a SegmentSet. Segment
// files are read whole (in index order per shard); .tmp files are
// counted unpublished and skipped. A snapshot-*.snap file (the
// checkpoint format this package does not write) is refused: the
// segments it covered may be gone, so recovering without it would
// silently return an older state.
func ReadWALDir(dir string) (*SegmentSet, error) {
	set := &SegmentSet{Shards: map[int][][]byte{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			var shard int
			if _, err := fmt.Sscanf(name, "shard-%d", &shard); err != nil {
				continue
			}
			segs, err := os.ReadDir(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			var files []string
			for _, s := range segs {
				sn := s.Name()
				if strings.HasSuffix(sn, ".tmp") {
					set.Unpublished++
					continue
				}
				if strings.HasPrefix(sn, "seg-") && strings.HasSuffix(sn, ".wal") {
					files = append(files, sn)
				}
			}
			sort.Strings(files) // seg-%06d sorts numerically
			for _, fn := range files {
				b, err := os.ReadFile(filepath.Join(dir, name, fn))
				if err != nil {
					return nil, err
				}
				set.Shards[shard] = append(set.Shards[shard], b)
			}
		case !e.IsDir() && strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			return nil, fmt.Errorf("storage: %s: checkpoint snapshots are not supported; the log may be missing the segments it covered", filepath.Join(dir, name))
		}
	}
	return set, nil
}

// MemBackend keeps segments in memory: the tests' and experiments'
// crash-model backend. SegmentSet returns the bytes a process crash
// would leave behind (published segments only), so chaos sweeps can
// truncate them into crash prefixes.
type MemBackend struct {
	mu     sync.Mutex
	shards map[int]map[int]*memSegment
	// SyncDelay, if set, is slept on every segment Sync — a simulated
	// fsync cost for group-commit benchmarks. It is a floor, not the
	// cost: where the timer resolution is coarse, any delay under 1 ms
	// sleeps about 1 ms (200 sleeps each of 20 µs, 200 µs and 1 ms all
	// averaged ~1.06 ms on a 2-vCPU Linux VM with Go 1.24).
	SyncDelay time.Duration
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{shards: map[int]map[int]*memSegment{}}
}

type memSegment struct {
	b         *MemBackend
	buf       []byte
	published bool
}

func (s *memSegment) Write(p []byte) (int, error) {
	s.b.mu.Lock()
	s.buf = append(s.buf, p...)
	s.b.mu.Unlock()
	return len(p), nil
}

func (s *memSegment) Sync() error {
	s.b.mu.Lock()
	d := s.b.SyncDelay
	s.b.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (s *memSegment) Close() error { return nil }

// Create opens an unpublished in-memory segment.
func (b *MemBackend) Create(shard, index int) (SegmentFile, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shards[shard] == nil {
		b.shards[shard] = map[int]*memSegment{}
	}
	seg := &memSegment{b: b}
	b.shards[shard][index] = seg
	return seg, nil
}

// Publish marks the segment visible to SegmentSet.
func (b *MemBackend) Publish(shard, index int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	seg := b.shards[shard][index]
	if seg == nil {
		return fmt.Errorf("storage: publish of unknown segment %d/%d", shard, index)
	}
	seg.published = true
	return nil
}

// SegmentSet copies out the published segments (deep-copied), exactly
// what a crash would leave.
func (b *MemBackend) SegmentSet() (*SegmentSet, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	set := &SegmentSet{Shards: map[int][][]byte{}}
	for shard, segs := range b.shards {
		idxs := make([]int, 0, len(segs))
		for i, s := range segs {
			if s.published {
				idxs = append(idxs, i)
			} else {
				set.Unpublished++
			}
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			set.Shards[shard] = append(set.Shards[shard], append([]byte(nil), segs[i].buf...))
		}
	}
	return set, nil
}
