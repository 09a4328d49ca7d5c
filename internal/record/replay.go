package record

import (
	"context"
	"fmt"
	"sort"
	"time"

	"relser/internal/fault"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// ReplayOptions overrides parts of a recording's configuration. The
// zero value replays the recording exactly as captured (byte-identical
// mode); any override switches the replay to backfill mode, where
// divergence from the recorded baseline is the deliverable rather than
// a failure.
type ReplayOptions struct {
	// Protocol re-runs the traffic under a different protocol
	// ("s2pl", "to", ...). Empty keeps the recorded one.
	Protocol string
	// Shards re-runs with a different shard count; 0 keeps the
	// recorded one.
	Shards int
	// Spec overrides the atomicity specification: "" or "recorded"
	// keeps the workload's relative spec; "absolute" substitutes
	// sched.AbsoluteOracle (full atomicity) — the classic backfill
	// question "how would this traffic have fared under
	// serializability?".
	Spec string
	// Faults selects the injector: "recorded" or "" re-arms the
	// recorded spec and seed (the firing schedule is a pure function of
	// both, so the incident itself replays); "off" disables injection;
	// anything else parses as a fault spec in the point:rate[:duration]
	// grammar.
	Faults string
	// FaultSeed overrides the injector seed; 0 keeps the recorded one.
	FaultSeed int64
	// Watchdog overrides the concurrent driver's stall watchdog; 0
	// keeps the recorded value.
	Watchdog time.Duration
}

// backfill reports whether any override changes the execution from the
// recorded configuration.
func (o ReplayOptions) backfill(m Manifest) bool {
	return (o.Protocol != "" && o.Protocol != m.Protocol) ||
		(o.Shards != 0 && o.Shards != m.Shards) ||
		(o.Spec != "" && o.Spec != "recorded" && o.Spec != "relative") ||
		(o.Faults != "" && o.Faults != "recorded") ||
		(o.FaultSeed != 0 && o.FaultSeed != m.FaultSeed)
}

// Divergence is one recorded-vs-replayed difference.
type Divergence struct {
	// Kind: outcome | verdict | invariant | counter | fault | wal |
	// stage-log | state.
	Kind string `json:"kind"`
	// Field names the counter or facet; Object names the store object
	// for state divergences.
	Field    string `json:"field,omitempty"`
	Object   string `json:"object,omitempty"`
	Recorded string `json:"recorded"`
	Replayed string `json:"replayed"`
}

// Report is the structured replay comparison rsreplay emits as JSON.
type Report struct {
	// Mode is "byte-identical" (no overrides; divergence is a bug) or
	// "backfill" (overrides active; divergence is the answer).
	Mode      string `json:"mode"`
	Identical bool   `json:"identical"`
	// Deterministic records whether the full byte-level comparison
	// applied. Concurrent-driver recordings compare only
	// schedule-independent facets (outcome class, verdict, invariant) —
	// the goroutine schedule is not reproducible, so WAL bytes, stage
	// logs and counters legitimately differ.
	Deterministic bool         `json:"deterministic"`
	Divergences   []Divergence `json:"divergences,omitempty"`
	Recorded      Outcome      `json:"recorded"`
	Replayed      Outcome      `json:"replayed"`
}

// Record executes the manifest's run fresh — same resolver, drivers and
// durability shapes as Replay — recording it, with sinks attached as
// pure observers. The returned Recorder is sealed (Finish already
// called); Encode or WriteFile it. Run failures
// that the engine surfaces (crash, wedge, cancellation) are recorded
// outcomes, not errors.
func Record(ctx context.Context, m Manifest, sinks Observers) (*Recorder, error) {
	rr, _, err := execute(ctx, m, nil, ReplayOptions{}, sinks)
	return rr, err
}

// Replay re-executes a recording through the engine pipeline and
// compares the replayed outcome against the recorded baseline.
//
// The error return is reserved for replays that cannot run at all
// (unknown workload or protocol, bad fault spec); a run that ends in a
// crash, wedge or verdict failure is a comparison input, not an error.
func Replay(ctx context.Context, rec *Recording, opts ReplayOptions) (*Report, error) {
	_, replayed, err := execute(ctx, rec.Manifest, rec.Initial, opts, Observers{})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Mode:          "byte-identical",
		Deterministic: !rec.Manifest.Concurrent,
		Recorded:      rec.Outcome,
		Replayed:      replayed,
	}
	if opts.backfill(rec.Manifest) {
		rep.Mode = "backfill"
	}
	rep.Divergences = compare(rec.Outcome, replayed, rep.Deterministic)
	rep.Identical = len(rep.Divergences) == 0
	return rep, nil
}

// execute runs one manifest-described execution (with opts overrides
// applied) under a fresh recording tap. initial overrides the starting
// state; nil starts from the workload's own initial values.
func execute(ctx context.Context, m Manifest, initial map[string]storage.Value, opts ReplayOptions, sinks Observers) (*Recorder, Outcome, error) {
	w, err := workload.Build(m.Workload)
	if err != nil {
		return nil, Outcome{}, err
	}

	oracle := w.Oracle
	switch opts.Spec {
	case "", "recorded", "relative":
	case "absolute":
		oracle = sched.AbsoluteOracle{}
	default:
		return nil, Outcome{}, fmt.Errorf("record: unknown spec override %q (have recorded, absolute)", opts.Spec)
	}
	protoName := m.Protocol
	if opts.Protocol != "" {
		protoName = opts.Protocol
	}
	shards := m.Shards
	if opts.Shards != 0 {
		shards = opts.Shards
	}
	p, err := sched.NewProtocolSharded(protoName, oracle, shards)
	if err != nil {
		return nil, Outcome{}, err
	}

	var inj *fault.Injector
	faultSeed := m.FaultSeed
	if opts.FaultSeed != 0 {
		faultSeed = opts.FaultSeed
	}
	switch opts.Faults {
	case "", "recorded":
		if m.FaultSpec != "" {
			spec, err := fault.ParseSpec(m.FaultSpec)
			if err != nil {
				return nil, Outcome{}, fmt.Errorf("record: recorded fault spec: %v", err)
			}
			inj = fault.New(faultSeed, spec)
		}
	case "off":
	default:
		spec, err := fault.ParseSpec(opts.Faults)
		if err != nil {
			return nil, Outcome{}, err
		}
		inj = fault.New(faultSeed, spec)
	}

	if initial == nil {
		initial = w.Initial
	}
	store := storage.NewStore()
	store.Load(initial)

	// Reproduce the recorded durability shape so WAL bytes compare.
	var (
		sink storage.WALSink
		mem  *storage.MemBackend
		swal *storage.ShardedWAL
	)
	switch m.WALMode {
	case "", "none":
	case "segmented":
		mem = storage.NewMemBackend()
		swal, err = storage.NewShardedWAL(mem, storage.SegmentedOptions{
			Shards:       m.WALShards,
			SegmentBytes: m.WALSegmentBytes,
		})
		if err != nil {
			return nil, Outcome{}, err
		}
		// Every lane parks a committer goroutine; Close is idempotent, so
		// this covers the early returns below too.
		defer swal.Close() //nolint:errcheck // the path that reads the log closes it explicitly first
		sink = swal
	default:
		return nil, Outcome{}, fmt.Errorf("record: unknown WAL mode %q in manifest", m.WALMode)
	}

	watchdog := m.Watchdog
	if opts.Watchdog != 0 {
		watchdog = opts.Watchdog
	}

	rr := NewRecorder(m)
	rr.SetInitial(initial)
	rr.SetMetrics(sinks.Metrics)
	cfg := txn.Config{
		Protocol:    p,
		Programs:    w.Programs,
		Oracle:      oracle,
		Store:       store,
		Semantics:   w.Semantics,
		MPL:         m.MPL,
		Shards:      shards,
		Seed:        m.Seed,
		MaxRestarts: m.MaxRestarts,
		WAL:         sink,
		Faults:      inj,
		Deadline:    m.Deadline,
		Watchdog:    watchdog,
		Hooks:       rr.Hooks(txn.Hooks{}),
		Tracer:      sinks.Tracer,
		Metrics:     sinks.Metrics,
	}
	cfg = sinks.Obs.Attach(cfg)

	var (
		res    *txn.Result
		runErr error
	)
	if m.Concurrent {
		var runner *txn.ConcurrentRunner
		runner, runErr = txn.NewConcurrent(cfg)
		if runErr == nil {
			res, runErr = runner.RunContext(ctx)
		}
	} else {
		var runner *txn.Runner
		runner, runErr = txn.New(cfg)
		if runErr == nil {
			res, runErr = runner.RunContext(ctx)
		}
	}
	if runErr != nil && res == nil && !isRunFailure(runErr) {
		// Construction-time errors (bad MPL, nil store) are not run
		// outcomes; surface them.
		return nil, Outcome{}, runErr
	}

	if swal != nil {
		swal.Close() //nolint:errcheck // a latched injected crash is an expected terminal state
		set, serr := mem.SegmentSet()
		if serr != nil {
			return nil, Outcome{}, serr
		}
		rr.SetWALBytes(FlattenSegmentSet(set))
		rr.set = set
	}
	rr.Finish(res, runErr, inj, store, w)
	out, _ := rr.Outcome()
	return rr, out, nil
}

// isRunFailure reports whether an error is a legitimate end state of a
// run (and therefore a recordable outcome) rather than a configuration
// error.
func isRunFailure(err error) bool {
	cls, _ := classifyErr(err)
	return cls != "error"
}

// compare diffs a replayed outcome against the recorded baseline. For
// deterministic recordings everything must match byte-for-byte; for
// concurrent recordings only schedule-independent facets are owed
// (outcome class, certification verdict, data invariant).
func compare(rec, rep Outcome, deterministic bool) []Divergence {
	var out []Divergence
	add := func(kind, field, object, a, b string) {
		if a != b {
			out = append(out, Divergence{Kind: kind, Field: field, Object: object, Recorded: a, Replayed: b})
		}
	}
	add("outcome", "", "", rec.Outcome, rep.Outcome)
	add("verdict", "", "", rec.Verdict, rep.Verdict)
	add("invariant", "", "", rec.Invariant, rep.Invariant)
	if !deterministic {
		return out
	}
	counters := []struct {
		name     string
		rec, rep int
	}{
		{"committed", rec.Committed, rep.Committed},
		{"aborts", rec.Aborts, rep.Aborts},
		{"restarts", rec.Restarts, rep.Restarts},
		{"injected_aborts", rec.InjectedAborts, rep.InjectedAborts},
		{"injected_delays", rec.InjectedDelays, rep.InjectedDelays},
		{"load_sheds", rec.LoadSheds, rep.LoadSheds},
		{"deadline_aborts", rec.DeadlineAborts, rep.DeadlineAborts},
		{"cancel_aborts", rec.CancelAborts, rep.CancelAborts},
	}
	for _, c := range counters {
		add("counter", c.name, "", fmt.Sprint(c.rec), fmt.Sprint(c.rep))
	}
	add("fault", "fingerprint", "", rec.FaultFingerprint, rep.FaultFingerprint)
	add("wal", "hash", "", rec.WALHash, rep.WALHash)
	add("wal", "len", "", fmt.Sprint(rec.WALLen), fmt.Sprint(rep.WALLen))
	add("stage-log", "hash", "", rec.StageHash, rep.StageHash)
	out = append(out, diffState(rec.Final, rep.Final)...)
	return out
}

// diffState diffs two final-store snapshots keyed by object, in sorted
// object order so reports are stable across runs.
func diffState(rec, rep map[string]storage.Value) []Divergence {
	objs := make(map[string]bool, len(rec)+len(rep))
	//rsvet:allow detlint -- order-insensitive: set union
	for k := range rec {
		objs[k] = true
	}
	//rsvet:allow detlint -- order-insensitive: set union
	for k := range rep {
		objs[k] = true
	}
	names := make([]string, 0, len(objs))
	//rsvet:allow detlint -- order-insensitive: keys are collected then sorted below
	for k := range objs {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []Divergence
	for _, k := range names {
		a, aok := rec[k]
		b, bok := rep[k]
		if aok && bok && a == b {
			continue
		}
		d := Divergence{Kind: "state", Object: k, Recorded: "<absent>", Replayed: "<absent>"}
		if aok {
			d.Recorded = fmt.Sprint(a)
		}
		if bok {
			d.Replayed = fmt.Sprint(b)
		}
		out = append(out, d)
	}
	return out
}
