package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"relser/internal/metrics"
	"relser/internal/record"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// runE19 certifies the record/replay harness (internal/record, rssim
// -record, rsreplay) end to end:
//
//   - Determinism: every recorded run on the tick driver — clean, under
//     WAL chaos, under an abort storm — replays byte-identically after a
//     round trip through the .rsrec codec: same verdict, same fault
//     schedule and fingerprint, same WAL bytes, same stage log, same
//     final store.
//   - Incident time-travel: a recorded watchdog wedge (rate-1 shard
//     wedge on the goroutine driver) replays as the same incident class
//     — the artifact alone reproduces the outage.
//   - Backfill: replaying recorded relative-atomicity traffic under the
//     absolute spec yields a non-empty divergence report, and the
//     report is stable across repeated backfills — the counterfactual
//     is an answer, not noise.
//   - Overhead: the recording tap (stage log + snapshot + hashing +
//     encode) costs <5% wall time over the identical untapped run.
func runE19(opts Options) (*Report, error) {
	rep := &Report{}
	//rsvet:allow ctxflow -- experiment entry point: runE19 is the lifecycle root for this run
	ctx := context.Background()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	if err := replayMatrix(ctx, rep, opts); err != nil {
		return nil, err
	}
	if err := replayWedge(ctx, rep, opts); err != nil {
		return nil, err
	}
	if err := replayBackfill(ctx, rep, opts); err != nil {
		return nil, err
	}
	if err := replayOverhead(ctx, rep, opts); err != nil {
		return nil, err
	}
	rep.AddNote("reproduce any row from the shell: rssim -workload banking -protocol <p> -seed <s> [-faults '<spec>' -wal waldir] -record run.rsrec, then rsreplay -in run.rsrec (exit 0 identical, 3 divergence, 4 unreadable)")
	return rep, nil
}

// replayMatrix records deterministic banking runs across fault mixes,
// protocols and seeds, round-trips each artifact through the codec, and
// replays it expecting byte identity.
func replayMatrix(ctx context.Context, rep *Report, opts Options) error {
	mixes := []struct {
		name string
		spec string
	}{
		{"clean", ""},
		{"wal-chaos", "wal.torn:0.004,wal.corrupt:0.003,wal.crash:0.002"},
		{"abort-storm", "txn.abort:0.3"},
	}
	protocols := []string{"s2pl", "rsgt", "to"}
	seeds := 3
	if opts.Quick {
		protocols = []string{"rsgt", "to"}
		seeds = 2
	}
	tb := metrics.NewTable("Record -> replay byte identity (banking, deterministic driver, one-lane WAL)",
		"faults", "protocol", "seed", "outcome", "committed", "stages", "artifact bytes", "identical")
	all := true
	for _, mix := range mixes {
		for _, proto := range protocols {
			for s := 0; s < seeds; s++ {
				seed := opts.Seed + int64(s)
				m := record.Manifest{
					Workload:    workload.BuildParams{Name: "banking", Seed: seed, Crossing: true},
					Protocol:    proto,
					Seed:        seed,
					MPL:         8,
					MaxRestarts: 100000,
					WALMode:     "segmented",
				}
				if mix.spec != "" {
					m.FaultSpec = mix.spec
					m.FaultSeed = seed
				}
				rr, err := record.Record(ctx, m, record.Observers{})
				if err != nil {
					return fmt.Errorf("record %s/%s seed %d: %v", mix.name, proto, seed, err)
				}
				raw := rr.Encode()
				rec, err := record.Decode(raw)
				if err != nil {
					return fmt.Errorf("decode %s/%s seed %d: %v", mix.name, proto, seed, err)
				}
				report, err := record.Replay(ctx, rec, record.ReplayOptions{})
				if err != nil {
					return fmt.Errorf("replay %s/%s seed %d: %v", mix.name, proto, seed, err)
				}
				if !report.Identical || !report.Deterministic {
					all = false
				}
				tb.AddRow(mix.name, proto, seed, rec.Outcome.Outcome, rec.Outcome.Committed,
					len(rec.Stages), len(raw), boolMark(report.Identical))
			}
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.AddClaim(all, "every deterministic recording replays byte-identically after a codec round trip: outcome, verdict, fault schedule, WAL bytes, stage log and final store all match")
	return nil
}

// replayWedge records a rate-1 shard wedge on the goroutine driver (the
// E16 wedge leg) and replays the artifact: the run is nondeterministic,
// so identity is owed at incident-class level — the replay must wedge
// too.
func replayWedge(ctx context.Context, rep *Report, opts Options) error {
	m := record.Manifest{
		Workload:   workload.BuildParams{Name: "banking", Seed: opts.Seed},
		Protocol:   "nocc",
		Seed:       opts.Seed,
		MPL:        4,
		Shards:     opts.Shards,
		Concurrent: true,
		Watchdog:   300 * time.Millisecond,
		FaultSpec:  "shard.wedge:1",
		FaultSeed:  opts.Seed,
	}
	rr, err := record.Record(ctx, m, record.Observers{})
	if err != nil {
		return fmt.Errorf("record wedge: %v", err)
	}
	rec, err := record.Decode(rr.Encode())
	if err != nil {
		return fmt.Errorf("decode wedge: %v", err)
	}
	report, err := record.Replay(ctx, rec, record.ReplayOptions{})
	if err != nil {
		return fmt.Errorf("replay wedge: %v", err)
	}
	ok := rec.Outcome.Outcome == "wedged" && report.Identical && !report.Deterministic
	rep.AddClaim(ok,
		"a recorded watchdog wedge replays as the same incident class (recorded %q, replayed %q) with the concurrent recording correctly downgraded to class-level comparison",
		rec.Outcome.Outcome, report.Replayed.Outcome)
	return nil
}

// replayBackfill replays recorded relative-atomicity traffic under the
// absolute spec, twice, expecting a non-empty divergence report that is
// identical across backfills.
func replayBackfill(ctx context.Context, rep *Report, opts Options) error {
	m := record.Manifest{
		// Seed 7 under rsgt at MPL 16 is a known-divergent cell: the
		// relative spec admits interleavings absolute atomicity rejects.
		Workload:    workload.BuildParams{Name: "banking", Seed: 7, Crossing: true},
		Protocol:    "rsgt",
		Seed:        7,
		MPL:         16,
		MaxRestarts: 100000,
		WALMode:     "segmented",
	}
	rr, err := record.Record(ctx, m, record.Observers{})
	if err != nil {
		return fmt.Errorf("record backfill base: %v", err)
	}
	rec, err := record.Decode(rr.Encode())
	if err != nil {
		return fmt.Errorf("decode backfill base: %v", err)
	}
	var reports [][]byte
	nonEmpty := true
	for i := 0; i < 2; i++ {
		report, err := record.Replay(ctx, rec, record.ReplayOptions{Spec: "absolute"})
		if err != nil {
			return fmt.Errorf("backfill %d: %v", i, err)
		}
		if report.Mode != "backfill" || report.Identical || len(report.Divergences) == 0 {
			nonEmpty = false
		}
		js, err := json.Marshal(report)
		if err != nil {
			return err
		}
		reports = append(reports, js)
	}
	stable := string(reports[0]) == string(reports[1])
	rep.AddClaim(nonEmpty && stable,
		"backfilling recorded relative-atomicity traffic under the absolute spec diverges (mode=backfill, non-empty report) and the report is byte-stable across repeated backfills")
	return nil
}

// replayOverhead times the identical deterministic run with and without
// the recording tap (tap cost = stage log + snapshot anchor + WAL and
// stage hashing + artifact encode) and bounds the overhead, best-of-reps
// on both sides.
func replayOverhead(ctx context.Context, rep *Report, opts Options) error {
	scale := 32
	reps := 5
	if opts.Quick {
		scale = 4
		reps = 2
	}
	m := record.Manifest{
		Workload:    workload.BuildParams{Name: "synthetic", Seed: opts.Seed, Scale: scale, Granularity: 2},
		Protocol:    "s2pl",
		Seed:        opts.Seed,
		MPL:         16,
		MaxRestarts: 100000,
	}
	best := func(f func() error) (time.Duration, error) {
		bestD := time.Duration(0)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(start); bestD == 0 || d < bestD {
				bestD = d
			}
		}
		return bestD, nil
	}
	// The untapped side is the same manifest driven directly — build,
	// protocol, tick driver, verify — with no recorder hooks attached;
	// the tapped side is record.Record plus the artifact encode.
	untappedRun := func() error {
		w, err := workload.Build(m.Workload)
		if err != nil {
			return err
		}
		p, err := sched.NewProtocol(m.Protocol, w.Oracle)
		if err != nil {
			return err
		}
		store := storage.NewStore()
		store.Load(w.Initial)
		r, err := txn.New(txn.Config{
			Protocol:    p,
			Programs:    w.Programs,
			Oracle:      w.Oracle,
			Store:       store,
			Semantics:   w.Semantics,
			MPL:         m.MPL,
			Seed:        m.Seed,
			MaxRestarts: m.MaxRestarts,
		})
		if err != nil {
			return err
		}
		res, err := r.RunContext(ctx)
		if err != nil {
			return err
		}
		return res.Verify()
	}
	tapped, err := best(func() error {
		r2, err := record.Record(ctx, m, record.Observers{})
		if err != nil {
			return err
		}
		_ = r2.Encode()
		return nil
	})
	if err != nil {
		return err
	}
	untapped, err := best(untappedRun)
	if err != nil {
		return err
	}
	ratio := float64(tapped) / float64(untapped)
	tb := metrics.NewTable("Recording tap overhead (synthetic, deterministic driver, best of reps)",
		"mode", "wall", "vs untapped")
	tb.AddRow("untapped run (direct driver)", untapped.Round(time.Microsecond).String(), "1.00x")
	tb.AddRow("recorded run + encode", tapped.Round(time.Microsecond).String(), fmt.Sprintf("%.2fx", ratio))
	rep.Tables = append(rep.Tables, tb)
	if opts.Quick {
		rep.AddNote("quick mode reports the recording overhead without claiming it (%.2fx at reduced size); the <5%% budget is asserted on full-size runs", ratio)
	} else {
		rep.AddClaim(ratio <= 1.05,
			"capturing a run (stage log, snapshot anchor, hashing, artifact encode) costs <5%% wall time over the identical untapped execution (%.2fx)", ratio)
	}
	return nil
}
