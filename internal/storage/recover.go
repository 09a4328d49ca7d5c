package storage

import (
	"bytes"
	"fmt"
)

// SegmentedReport summarizes one recovery pass over the log.
type SegmentedReport struct {
	Segments   int
	Records    int
	Committed  int
	Aborted    int
	Unfinished int
	Orphans    int
	// Tail says how the scan ended; on damage, TailSegment is the
	// damaged segment's position in the chain and DroppedSegments counts
	// the segments after it, ignored wholesale (their records are beyond
	// the log's valid prefix).
	Tail            ScanReport
	TailSegment     int
	DroppedSegments int
	// Unpublished counts segment files ignored because a crash hit
	// between rotation and publish.
	Unpublished int
}

// Clean reports whether the scan reached a clean tail.
func (r *SegmentedReport) Clean() bool { return r.Tail.Tail == TailClean }

// String renders the report.
func (r *SegmentedReport) String() string {
	return fmt.Sprintf("recovered %d segments, %d records: %d committed, %d aborted, %d unfinished, %d orphans",
		r.Segments, r.Records, r.Committed, r.Aborted, r.Unfinished, r.Orphans)
}

type pendingWrite struct {
	object string
	value  Value
}

// RecoverSegmented rebuilds a store from a segmented log in one
// in-order scan. Writes buffer from begin and apply at their commit
// record; aborted and unfinished instances leave no trace, and a write
// whose instance never began is an orphan. The scan stops at the first
// damaged tail or cross-segment inconsistency (wrong shard,
// non-increasing index, BaseGSN below the records already seen — all
// classified corrupt). Frames reach the device in append order, so the
// valid prefix is a prefix of the committed history: recovery from any
// crash image is a state some prefix of the run produced.
//
// The log has one lane; a set holding segments of any other lane is
// refused.
func RecoverSegmented(set *SegmentSet, initial map[string]Value) (*Store, *SegmentedReport, error) {
	if set == nil {
		set = &SegmentSet{}
	}
	other := 0
	//rsvet:allow detlint -- order-insensitive: the lowest other lane is named whatever the visit order
	for s := range set.Shards {
		if s != 0 && (other == 0 || s < other) {
			other = s
		}
	}
	if other != 0 {
		return nil, nil, fmt.Errorf("storage: the log has a lane %d; only one-lane logs (lane 0) are recovered", other)
	}
	st := NewStore()
	st.Load(initial)
	r := &SegmentedReport{Unpublished: set.Unpublished}
	segs := set.Shards[0]
	damage := func(segNo int, tail ScanReport) {
		r.Tail = tail
		r.TailSegment = segNo
		r.DroppedSegments = len(segs) - segNo - 1
	}
	pending := make(map[int64][]pendingWrite)
	lastIndex := -1
	var horizon uint64 // GSN of the last valid record, or the last BaseGSN
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
		// Cross-segment consistency: the chain must be lane 0's, with
		// strictly increasing indices and a BaseGSN no lower than what
		// earlier segments already vouched for.
		switch {
		case hdr.Shard != 0:
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: fmt.Sprintf("segment claims shard %d, found in shard 0", hdr.Shard)})
		case segNo > 0 && hdr.Index <= lastIndex:
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: fmt.Sprintf("segment index %d not increasing (previous %d)", hdr.Index, lastIndex)})
		case hdr.BaseGSN < horizon:
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: fmt.Sprintf("segment BaseGSN %d below horizon %d", hdr.BaseGSN, horizon)})
		}
		if !r.Clean() {
			break
		}
		lastIndex = hdr.Index
		horizon = max(horizon, hdr.BaseGSN)
		_, recs, tail, scanErr := ScanSegment(bytes.NewReader(seg))
		if scanErr != nil {
			// bytes.Reader cannot fail mid-read; treat defensively.
			damage(segNo, ScanReport{Tail: TailCorrupt, Detail: scanErr.Error()})
			break
		}
		r.Segments++
		for _, sr := range recs {
			r.Records++
			horizon = sr.GSN
			rec := sr.Rec
			switch rec.Kind {
			case WALBegin:
				pending[rec.Instance] = nil
			case WALWrite:
				if _, ok := pending[rec.Instance]; !ok {
					r.Orphans++
					continue
				}
				pending[rec.Instance] = append(pending[rec.Instance], pendingWrite{rec.Object, rec.Value})
			case WALCommit:
				for _, w := range pending[rec.Instance] {
					st.Write(w.object, w.value)
				}
				delete(pending, rec.Instance)
				r.Committed++
			case WALAbort:
				delete(pending, rec.Instance)
				r.Aborted++
			}
		}
		if tail.Tail != TailClean {
			damage(segNo, tail)
			break
		}
	}
	r.Unfinished = len(pending)
	return st, r, nil
}
