package storage

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// ShardRecovery is one lane's share of a segmented recovery pass.
type ShardRecovery struct {
	Shard    int
	Segments int
	Records  int
	// Committed counts this lane's commit records inside the cut;
	// BeyondCut counts commits discarded by the cross-shard cut.
	Committed  int
	Aborted    int
	Unfinished int
	Orphans    int
	BeyondCut  int
	// Damaged reports a non-clean tail; Tail and TailSegment say where
	// (TailSegment is the damaged segment's position in scan order).
	Damaged     bool
	Tail        ScanReport
	TailSegment int
	// DroppedSegments counts segments after the damaged one, ignored
	// wholesale (their records are beyond the lane's valid prefix).
	DroppedSegments int
	// Horizon is the GSN of the lane's last valid record (or the last
	// segment's BaseGSN when empty): the lane vouches for nothing
	// beyond it.
	Horizon uint64
}

// SegmentedReport summarizes a parallel segmented recovery.
type SegmentedReport struct {
	// Shards holds one entry per lane, ordered by shard index.
	Shards []ShardRecovery
	// CutApplied reports that at least one lane was damaged and the
	// cross-shard cut discarded commits with GSN > Cut; CutShard is the
	// lane that set the cut (lowest shard index on ties).
	CutApplied bool
	Cut        uint64
	CutShard   int
	// Unpublished counts segment files ignored because a crash hit
	// between rotation and publish.
	Unpublished int

	Records    int
	Committed  int
	Aborted    int
	Unfinished int
	Orphans    int
	BeyondCut  int
}

// Clean reports whether every lane scanned to a clean tail.
func (r *SegmentedReport) Clean() bool {
	for _, sh := range r.Shards {
		if sh.Damaged {
			return false
		}
	}
	return true
}

// FirstDamagedKind returns the lowest-indexed lane whose tail matches
// kind, and false if none does.
func (r *SegmentedReport) FirstDamagedKind(kind TailState) (ShardRecovery, bool) {
	for _, sh := range r.Shards {
		if sh.Damaged && sh.Tail.Tail == kind {
			return sh, true
		}
	}
	return ShardRecovery{}, false
}

// String renders the report.
func (r *SegmentedReport) String() string {
	s := fmt.Sprintf("recovered %d lanes, %d records: %d committed, %d aborted, %d unfinished, %d orphans",
		len(r.Shards), r.Records, r.Committed, r.Aborted, r.Unfinished, r.Orphans)
	if r.CutApplied {
		s += fmt.Sprintf(" (cut@%d by shard %d: %d commits discarded)", r.Cut, r.CutShard, r.BeyondCut)
	}
	return s
}

// shardScan is one lane's scan output before reconciliation.
type shardScan struct {
	rec     ShardRecovery
	commits []laneCommit
}

// laneCommit is one committed transaction found in a lane: its commit
// GSN plus buffered writes in log order.
type laneCommit struct {
	gsn    uint64
	writes []pendingWrite
}

type pendingWrite struct {
	object string
	value  Value
}

// RecoverSegmented rebuilds a store from a segmented log: every lane
// is scanned concurrently (the parallel half), then a cross-shard cut
// reconciles damage and committed writes are applied in global commit
// order (GSN). The cut argument: a lane's log vouches for nothing past
// its horizon, and since every dependency a transaction commits under
// points at lower GSNs, discarding all commits with GSN above the
// minimum damaged horizon yields a consistent prefix of the committed
// history — so recovery from ANY per-lane prefix is invariant-clean.
func RecoverSegmented(set *SegmentSet, initial map[string]Value) (*Store, *SegmentedReport, error) {
	if set == nil {
		set = &SegmentSet{}
	}
	shardIdxs := make([]int, 0, len(set.Shards))
	for s := range set.Shards {
		shardIdxs = append(shardIdxs, s)
	}
	sort.Ints(shardIdxs)
	scans := make([]shardScan, len(shardIdxs))
	var wg sync.WaitGroup
	for i, s := range shardIdxs {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			scans[i] = scanShardLog(s, set.Shards[s])
		}(i, s)
	}
	wg.Wait()

	report := &SegmentedReport{Unpublished: set.Unpublished, CutShard: -1}

	// Cross-shard cut: the minimum horizon over damaged lanes bounds
	// which commits (from ANY lane) survive.
	for _, sc := range scans {
		if sc.rec.Damaged && (!report.CutApplied || sc.rec.Horizon < report.Cut) {
			report.CutApplied = true
			report.Cut = sc.rec.Horizon
			report.CutShard = sc.rec.Shard
		}
	}

	st := NewStore()
	st.Load(initial)
	var surviving []laneCommit
	for i := range scans {
		sc := &scans[i]
		kept := sc.commits[:0]
		for _, c := range sc.commits {
			if report.CutApplied && c.gsn > report.Cut {
				sc.rec.BeyondCut++
				continue
			}
			sc.rec.Committed++
			kept = append(kept, c)
		}
		surviving = append(surviving, kept...)
		report.Shards = append(report.Shards, sc.rec)
		report.Records += sc.rec.Records
		report.Committed += sc.rec.Committed
		report.Aborted += sc.rec.Aborted
		report.Unfinished += sc.rec.Unfinished
		report.Orphans += sc.rec.Orphans
		report.BeyondCut += sc.rec.BeyondCut
	}
	sort.Slice(surviving, func(i, j int) bool { return surviving[i].gsn < surviving[j].gsn })
	for _, c := range surviving {
		for _, w := range c.writes {
			st.Write(w.object, w.value)
		}
	}
	return st, report, nil
}

// scanShardLog replays one lane's segments in order, stopping at the
// first damaged tail or cross-segment inconsistency (wrong shard,
// non-increasing index, BaseGSN below the records already seen — all
// classified corrupt). Writes buffer from begin and apply at commit;
// aborted and unfinished instances leave no trace, and a write whose
// instance never began is an orphan. Instance routing guarantees a
// transaction's records never span lanes.
func scanShardLog(shardIdx int, segs [][]byte) shardScan {
	sc := shardScan{rec: ShardRecovery{Shard: shardIdx}}
	pending := make(map[int64][]pendingWrite)
	damage := func(segNo int, tail ScanReport) {
		sc.rec.Damaged = true
		sc.rec.TailSegment = segNo
		sc.rec.Tail = tail
		sc.rec.DroppedSegments = len(segs) - segNo - 1
	}
	lastIndex := -1
	for segNo, seg := range segs {
		if len(seg) < SegmentHeaderSize {
			damage(segNo, ScanReport{Tail: TailTorn, Detail: fmt.Sprintf("partial segment header (%d of %d bytes)", len(seg), SegmentHeaderSize)})
			break
		}
		hdr, err := DecodeSegmentHeader(seg[:SegmentHeaderSize])
		if err != nil {
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: "segment header magic or checksum mismatch"})
			break
		}
		// Cross-segment consistency: the chain must belong to this
		// lane, with strictly increasing indices and a BaseGSN no lower
		// than what earlier segments already vouched for.
		switch {
		case hdr.Shard != shardIdx:
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: fmt.Sprintf("segment claims shard %d, found in shard %d", hdr.Shard, shardIdx)})
		case segNo > 0 && hdr.Index <= lastIndex:
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: fmt.Sprintf("segment index %d not increasing (previous %d)", hdr.Index, lastIndex)})
		case hdr.BaseGSN < sc.rec.Horizon:
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: fmt.Sprintf("segment BaseGSN %d below horizon %d", hdr.BaseGSN, sc.rec.Horizon)})
		}
		if sc.rec.Damaged {
			break
		}
		lastIndex = hdr.Index
		if hdr.BaseGSN > sc.rec.Horizon {
			// Rotation syncs the sealed segment before opening this one,
			// so the lane vouches through BaseGSN even if this segment's
			// own frames were lost.
			sc.rec.Horizon = hdr.BaseGSN
		}
		_, recs, tail, scanErr := ScanSegment(bytes.NewReader(seg))
		if scanErr != nil {
			// bytes.Reader cannot fail mid-read; treat defensively.
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: scanErr.Error()})
			break
		}
		sc.rec.Segments++
		for _, sr := range recs {
			sc.rec.Records++
			sc.rec.Horizon = sr.GSN
			rec := sr.Rec
			switch rec.Kind {
			case WALBegin:
				pending[rec.Instance] = nil
			case WALWrite:
				if _, ok := pending[rec.Instance]; !ok {
					sc.rec.Orphans++
					continue
				}
				pending[rec.Instance] = append(pending[rec.Instance], pendingWrite{rec.Object, rec.Value})
			case WALCommit:
				sc.commits = append(sc.commits, laneCommit{gsn: sr.GSN, writes: pending[rec.Instance]})
				delete(pending, rec.Instance)
			case WALAbort:
				delete(pending, rec.Instance)
				sc.rec.Aborted++
			}
		}
		if tail.Tail != TailClean {
			damage(segNo, tail)
			break
		}
	}
	sc.rec.Unfinished = len(pending)
	return sc
}
