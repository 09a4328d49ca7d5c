package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/record"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// runE16 is the chaos certification: every built-in fault spec (or the
// one passed via Options.FaultSpec / rsbench -faults) runs the banking
// workload under seeded deterministic fault injection, and each run is
// certified on three axes:
//
//   - Correctness under faults: a run either completes — with its
//     committed schedule passing the offline RSG test and the balance
//     invariant holding — or crashes cleanly (fault.ErrCrash from an
//     injected WAL torn write or crash).
//   - Durability: recovery from EVERY prefix of the emitted log (each
//     segment cut at every frame boundary and mid-frame tear, the later
//     segments lost) yields a store whose balance invariant is intact —
//     torn tails truncate, they never corrupt.
//   - Reproducibility: rerunning with the same seed produces the
//     identical fault schedule (injector fingerprint), byte-identical
//     segments, and the same committed count — a chaos failure is
//     replayable from its seed alone.
//
// Every leg runs on the one log there is; the seg-* legs use 512-byte
// segments, adding the two fault points rotation and batching bring:
// wal.rotate.crash (die between sealing segment k and publishing k+1)
// and wal.group.partial (a group-commit batch torn mid-frame).
//
// Every deterministic cell is a record.Manifest executed by
// record.Record — the executor rsreplay and E19 use — so the artifact
// Options.RecordDir saves is the run that was certified, not a
// description of it.
//
// Two more legs exercise the graceful-degradation machinery on real
// goroutines: a latency-spike run that must complete certified, and a
// rate-1 shard wedge that the stall watchdog must surface as a
// *txn.WedgeError instead of hanging.
func runE16(opts Options) (*Report, error) {
	rep := &Report{}
	//rsvet:allow ctxflow -- experiment entry point: runE16 is the lifecycle root for this run
	ctx := context.Background()

	legs := chaosLegs
	if opts.FaultSpec != "" {
		if _, err := fault.ParseSpec(opts.FaultSpec); err != nil {
			return nil, err
		}
		legs = []chaosLeg{{name: "custom", spec: opts.FaultSpec}}
	}
	protocols := []string{"s2pl", "rsgt"}
	seeds := 3
	if opts.Quick {
		protocols = []string{"rsgt"}
		seeds = 2
	}

	tb := metrics.NewTable("Deterministic chaos runs (banking workload)",
		"spec", "protocol", "seed", "outcome", "committed", "aborts", "injected", "sheds", "deadline", "wal prefixes", "replay")
	for _, lg := range legs {
		allCertified, allPrefixes, allReplay := true, true, true
		sawShed, sawInjected := false, false
		for _, proto := range protocols {
			for s := 0; s < seeds; s++ {
				seed := opts.Seed + int64(s)
				m := lg.manifest(proto, seed)
				saveAs := ""
				if opts.RecordDir != "" {
					saveAs = filepath.Join(opts.RecordDir, fmt.Sprintf("e16-%s-%s-seed%d.rsrec", lg.name, proto, seed))
				}
				first, replayOK, err := chaosReplayed(ctx, m, saveAs, opts)
				if err != nil {
					return nil, fmt.Errorf("%s/%s seed %d: %v", lg.name, proto, seed, err)
				}
				allCertified = allCertified && first.certified
				allPrefixes = allPrefixes && first.prefixesClean
				sawShed = sawShed || first.sheds > 0
				sawInjected = sawInjected || first.injected > 0
				allReplay = allReplay && replayOK
				tb.AddRow(first.row(lg.name, proto, seed, replayOK)...)
			}
		}
		rep.AddClaim(allCertified,
			"%s: every run completes RSG-certified with the invariant intact, or crashes cleanly via fault.ErrCrash", lg.name)
		rep.AddClaim(allPrefixes,
			"%s: recovery from every WAL prefix (each segment cut at every frame boundary and mid-frame tear, later segments lost) preserves balance conservation", lg.name)
		rep.AddClaim(allReplay,
			"%s: same seed reproduces the identical fault schedule (fingerprint), segment bytes and outcome", lg.name)
		if lg.name == "abort-storm" {
			rep.AddClaim(sawInjected, "abort-storm: injected txn.abort faults actually fired")
			rep.AddClaim(sawShed, "abort-storm: the admission controller shed load (effective MPL degraded below configured MPL)")
		}
	}

	// Deadline leg: under S2PL, T2 blocks on T1's exclusive lock long
	// enough to overrun its deadline deterministically; after the
	// timeout-abort and restart it completes solo within budget.
	if dres, err := chaosDeadline(opts); err != nil {
		return nil, err
	} else {
		rep.AddClaim(dres.DeadlineAborts > 0 && dres.Committed == 2,
			"deadline: a blocked transaction overruns its deadline, is timeout-aborted (%d deadline aborts) and completes on retry", dres.DeadlineAborts)
	}

	// Concurrent legs: latency spikes must not break certification, and
	// a rate-1 shard wedge must be surfaced by the watchdog, not hung on.
	if opts.FaultSpec == "" {
		if err := chaosConcurrentLatency(rep, opts); err != nil {
			return nil, err
		}
		if err := chaosWedge(rep, opts); err != nil {
			return nil, err
		}
	}

	rep.Tables = append(rep.Tables, tb)
	rep.AddNote("fault specs use the internal/fault grammar point:rate[:duration]; reproduce any row with rssim -faults '<spec>' -seed <seed> (the injector fingerprint is a pure function of seed and per-point call indices)")
	return rep, nil
}

const walChaos = "wal.torn:0.004,wal.corrupt:0.003,wal.crash:0.002"

// chaosLegs are the deterministic table's legs: the seg-* legs rotate
// at 512 bytes, the others at the default 1 MiB. wal-damage's seeds 1
// and 2 fire wal.torn and wal.corrupt, which wal-chaos's seeds do not.
var chaosLegs = []chaosLeg{
	{name: "wal-chaos", spec: walChaos},
	{name: "abort-storm", spec: "txn.abort:0.5,sched.grant.delay:0.05"},
	{name: "latency", spec: "store.read.delay:0.05:200us,store.write.delay:0.05:200us"},
	{name: "seg-wal-chaos", spec: walChaos, segBytes: 512},
	{name: "seg-rotate-crash", spec: "wal.rotate.crash:0.08", segBytes: 512},
	{name: "seg-group-partial", spec: "wal.group.partial:0.01", segBytes: 512},
	{name: "wal-damage", spec: "wal.torn:0.01,wal.corrupt:0.02"},
}

// chaosLeg is one row family of the deterministic chaos table: a fault
// spec run over a log rotating at segBytes (zero: the default). The
// seg-* legs' 512-byte segments make the banking workload's modest log
// volume exercise rotation.
type chaosLeg struct {
	name     string
	spec     string
	segBytes int64
}

// manifest is the leg's cell for one protocol and seed — the whole run
// configuration, and exactly what a saved .rsrec replays.
func (lg chaosLeg) manifest(proto string, seed int64) record.Manifest {
	m := record.Manifest{
		Workload:    workload.BuildParams{Name: "banking", Seed: seed},
		Protocol:    proto,
		Seed:        seed,
		MPL:         8,
		MaxRestarts: 100000,
		FaultSpec:   fault.MustParseSpec(lg.spec).String(),
		FaultSeed:   seed,

		WALMode:         "segmented",
		WALSegmentBytes: lg.segBytes,
	}
	if lg.name == "abort-storm" {
		// Short transactions only: long audits would spend hundreds of
		// incarnations surviving a 0.5 per-tick abort rate.
		m.Workload.Variant = "short"
	}
	return m
}

// chaosOutcome captures one deterministic chaos run for certification
// and replay comparison.
type chaosOutcome struct {
	outcome        string // "completed" | "crashed"
	committed      int
	aborts         int
	injected       int
	sheds          int
	deadlineAborts int
	certified      bool
	prefixes       int
	prefixesClean  bool
	fingerprint    string
	wal            []byte
}

// row is the outcome's line in the deterministic chaos table.
func (o *chaosOutcome) row(leg, proto string, seed int64, replayOK bool) []any {
	return []any{leg, proto, seed, o.outcome, o.committed, o.aborts,
		o.injected, o.sheds, o.deadlineAborts, o.prefixes, boolMark(replayOK)}
}

// chaosReplayed runs one cell twice and reports whether the second run
// reproduced the first's fault schedule, WAL bytes and outcome.
func chaosReplayed(ctx context.Context, m record.Manifest, saveAs string, opts Options) (*chaosOutcome, bool, error) {
	first, err := chaosCell(ctx, m, saveAs, opts)
	if err != nil {
		return nil, false, err
	}
	second, err := chaosCell(ctx, m, "", opts)
	if err != nil {
		return nil, false, fmt.Errorf("replay: %v", err)
	}
	replayOK := first.fingerprint == second.fingerprint &&
		bytes.Equal(first.wal, second.wal) &&
		first.committed == second.committed &&
		first.outcome == second.outcome
	return first, replayOK, nil
}

// chaosCell executes one manifest on the deterministic driver through
// record.Record, saves the artifact when saveAs names a file, then
// certifies the recorded outcome and sweeps WAL prefix recovery.
func chaosCell(ctx context.Context, m record.Manifest, saveAs string, opts Options) (*chaosOutcome, error) {
	w, err := workload.Build(m.Workload)
	if err != nil {
		return nil, err
	}
	rr, err := record.Record(ctx, m, record.Observers{Tracer: opts.Tracer, Metrics: opts.Metrics, Obs: opts.Obs})
	if err != nil {
		return nil, err
	}
	if saveAs != "" {
		if err := rr.WriteFile(saveAs); err != nil {
			return nil, fmt.Errorf("chaos recording %s: %v", saveAs, err)
		}
	}
	res, _ := rr.Outcome()
	set := rr.Segments()
	out := &chaosOutcome{outcome: res.Outcome, fingerprint: res.FaultFingerprint, wal: rr.WAL()}
	switch res.Outcome {
	case "completed":
		out.committed = res.Committed
		out.aborts = res.Aborts
		out.injected = res.InjectedAborts + res.InjectedDelays
		out.sheds = res.LoadSheds
		out.deadlineAborts = res.DeadlineAborts
		out.certified = res.Verdict == "pass" && res.Invariant == "pass"
	case "crashed":
		// An injected WAL crash or torn write ended the run; durability
		// is certified by the prefix sweep below.
		out.certified = true
	default:
		return nil, fmt.Errorf("run %s: %s", res.Outcome, res.Error)
	}
	// The log must also recover as it stands: a completed run's whole
	// log back to the live store; a crashed run's to an invariant-clean
	// prefix — as must a log wal.corrupt damaged under a run that
	// completed (the one fault that lies while the log keeps running).
	rst, rrep, err := storage.RecoverSegmented(set, w.Initial)
	lied := err == nil && !rrep.Clean() && strings.Contains(m.FaultSpec, string(fault.WALCorrupt))
	switch {
	case err != nil:
		out.certified = false
	case res.Outcome == "completed" && !lied:
		out.certified = out.certified && rrep.Clean()
		for obj, v := range rst.Snapshot() {
			if res.Final[obj] != v {
				out.certified = false
			}
		}
	default:
		out.certified = out.certified && w.Invariant(rst.Snapshot()) == nil
	}
	out.prefixes, out.prefixesClean = sweepSegmentPrefixes(set, w)
	return out, nil
}

// chaosDeadline builds the deterministic deadline-overrun scenario:
// T1 holds x exclusively for six ticks, so T2 (blocked on x from
// admission, then six ops of its own) cannot finish within its
// nine-tick deadline on the first incarnation, but completes alone
// after the timeout-abort.
func chaosDeadline(opts Options) (*txn.Result, error) {
	t1 := core.T(1, core.W("x"), core.W("a1"), core.W("a2"), core.W("a3"), core.W("a4"), core.W("a5"))
	t2 := core.T(2, core.R("x"), core.R("b1"), core.R("b2"), core.R("b3"), core.R("b4"), core.R("b5"))
	r, err := txn.New(opts.Obs.Attach(txn.Config{
		Protocol:    sched.NewS2PL(),
		Programs:    []*core.Transaction{t1, t2},
		MPL:         8,
		Seed:        opts.Seed,
		Deadline:    9,
		MaxRestarts: 100,
		Tracer:      opts.Tracer,
		Metrics:     opts.Metrics,
	}))
	if err != nil {
		return nil, err
	}
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("deadline leg: %v", err)
	}
	return res, nil
}

// chaosConcurrentLatency runs the banking workload on goroutines under
// storage latency spikes and a shard-stall point, certifying that
// slowness degrades throughput but never correctness.
func chaosConcurrentLatency(rep *Report, opts Options) error {
	spec := fault.MustParseSpec("store.read.delay:0.05:200us,store.write.delay:0.05:200us,shard.stall:0.02:500us")
	w, err := workload.Banking(workload.DefaultBankingConfig(), opts.Seed)
	if err != nil {
		return err
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	r, err := txn.NewConcurrent(opts.Obs.Attach(txn.Config{
		Protocol:  sched.NewS2PLSharded(opts.Shards),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       6,
		Shards:    opts.Shards,
		Seed:      opts.Seed,
		Watchdog:  10 * time.Second,
		Faults:    fault.New(opts.Seed, spec),
		Tracer:    opts.Tracer,
		Metrics:   opts.Metrics,
	}))
	if err != nil {
		return err
	}
	res, err := r.Run()
	ok := err == nil && res.Verify() == nil && w.Invariant(store.Snapshot()) == nil
	rep.AddClaim(ok, "latency (concurrent): storage delay spikes and shard stalls degrade speed, never certification (err=%v)", err)
	return nil
}

// chaosWedge arms shard.wedge at rate 1 under a short watchdog: the
// first operation of every worker parks inside the driver holding its
// shard mutex, and the run must fail with *txn.WedgeError instead of
// hanging.
func chaosWedge(rep *Report, opts Options) error {
	w, err := workload.Banking(workload.DefaultBankingConfig(), opts.Seed)
	if err != nil {
		return err
	}
	store := storage.NewStore()
	store.Load(w.Initial)
	r, err := txn.NewConcurrent(opts.Obs.Attach(txn.Config{
		Protocol:  sched.NewNoCC(),
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       4,
		Shards:    opts.Shards,
		Seed:      opts.Seed,
		Watchdog:  300 * time.Millisecond,
		Faults:    fault.New(opts.Seed, fault.MustParseSpec("shard.wedge:1")),
		Tracer:    opts.Tracer,
		Metrics:   opts.Metrics,
	}))
	if err != nil {
		return err
	}
	start := time.Now()
	_, err = r.Run()
	var we *txn.WedgeError
	detected := errors.As(err, &we)
	rep.AddClaim(detected,
		"wedge (concurrent): a rate-1 shard wedge is surfaced by the watchdog as *txn.WedgeError in %v, not a hang (err=%v)",
		time.Since(start).Round(time.Millisecond), err)
	return nil
}

// sweepSegmentPrefixes recovers every crash image of the log — each
// segment cut at every frame boundary and mid-frame tear, the segments
// after it lost — and checks the workload invariant each time. Frames
// reach the device in append order, so every image is a prefix of the
// commit order and owes the invariant.
func sweepSegmentPrefixes(set *storage.SegmentSet, w *workload.Workload) (int, bool) {
	checked, clean := 0, true
	segs := set.Shards[0]
	for k, seg := range segs {
		for _, cut := range segmentCuts(seg) {
			image := &storage.SegmentSet{
				Shards:      map[int][][]byte{0: append(append([][]byte(nil), segs[:k]...), seg[:cut])},
				Unpublished: set.Unpublished,
			}
			checked++
			st, _, err := storage.RecoverSegmented(image, w.Initial)
			if err != nil || w.Invariant(st.Snapshot()) != nil {
				clean = false
			}
		}
	}
	return checked, clean
}

// segmentCuts returns truncation offsets for one segment: inside the
// header, every frame boundary, and a mid-frame tear per record.
func segmentCuts(seg []byte) []int {
	cuts := []int{0}
	if len(seg) < storage.SegmentHeaderSize {
		cuts = append(cuts, len(seg)/2)
		return cuts
	}
	cuts = append(cuts, storage.SegmentHeaderSize/2, storage.SegmentHeaderSize)
	off := storage.SegmentHeaderSize
	for off+8 <= len(seg) {
		size := int(binary.LittleEndian.Uint32(seg[off : off+4]))
		if size <= 0 || off+8+size > len(seg) {
			cuts = append(cuts, off+min(len(seg)-off, (8+size)/2))
			break
		}
		cuts = append(cuts, off+8+size/2)
		off += 8 + size
		cuts = append(cuts, off)
	}
	return cuts
}
