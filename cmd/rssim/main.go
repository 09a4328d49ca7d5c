// rssim runs a workload through the transaction runtime under a chosen
// concurrency-control protocol and reports throughput, aborts, blocks
// and — via the paper's Theorem 1 — whether the committed schedule is
// relatively serializable.
//
// Usage:
//
//	rssim -workload banking -protocol rsgt -seed 1 -mpl 8
//	rssim -workload longlived -protocol altruistic
//	rssim -workload synthetic -granularity 2 -protocol rsgt -schedule
//	rssim -workload banking -protocol rsgt -trace run.jsonl -metrics
//	rssim -workload banking -faults 'wal.torn:0.01,txn.abort:0.2' -seed 7
//	rssim -workload synthetic -concurrent -ops :6060 -linger 30s
//	rssim -workload banking -concurrent -shards 4 -wal waldir
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"relser"
	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/record"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/trace"
	"relser/internal/txn"
	"relser/internal/workload"
)

func main() {
	var (
		wname      = flag.String("workload", "banking", "banking | cadcam | longlived | synthetic")
		pname      = flag.String("protocol", "rsgt", strings.Join(sched.ProtocolNames(), " | "))
		seed       = flag.Int64("seed", 1, "deterministic seed")
		mpl        = flag.Int("mpl", 8, "multiprogramming level")
		gran       = flag.Int("granularity", 2, "synthetic workload atomic-unit length (0 = absolute)")
		scale      = flag.Int("scale", 1, "workload size multiplier")
		schedule   = flag.Bool("schedule", false, "print the committed schedule")
		dump       = flag.Bool("dump", false, "emit the committed run as an instance file (consumable by rscheck)")
		walPath    = flag.String("wal", "", "write the segmented group-commit write-ahead log into this directory (recover with rsrecover -wal <dir>)")
		walSegs    = flag.Int64("wal-segments", 1<<20, "segment rotation threshold in bytes for -wal")
		concurrent = flag.Bool("concurrent", false, "use the goroutine runtime instead of the deterministic tick driver")
		shards     = flag.Int("shards", 1, "shard count for the concurrent driver's hot path (rounded up to a power of two; requires -concurrent)")
		timeline   = flag.Bool("timeline", false, "render committed instances' lifetimes as an ASCII chart")
		recovery   = flag.Bool("recovery", false, "report the classical recoverability hierarchy (recoverable / ACA / strict)")
		verify     = flag.Bool("verify", true, "certify the committed schedule with the RSG test")
		crossed    = flag.Bool("crossing", true, "banking: audits scan families in alternating directions")
		tracePath  = flag.String("trace", "", "write structured runtime events (JSONL) to this file")
		chromePath = flag.String("chrome", "", "write the event trace in Chrome trace_event format to this file")
		dotDir     = flag.String("dotdir", "", "write RSG DOT snapshots taken at rejection points into this directory")
		metricsOn  = flag.Bool("metrics", false, "print the runtime metrics registry after the run")
		faultSpec  = flag.String("faults", "", "arm deterministic fault injection: point:rate[:duration],... (e.g. 'wal.torn:0.01,txn.abort:0.2'); same seed replays the same fault schedule")
		timeout    = flag.Duration("timeout", 0, "bound the whole run's wall time via a context deadline (0 disables); on expiry in-flight transactions are rolled back and any WAL stays recoverable")
		opsAddr    = flag.String("ops", "", "serve the live ops endpoint on this address for the run's duration (e.g. ':6060'): /metrics, /healthz, /debug/flight, /debug/spans, /debug/trace and /debug/pprof")
		linger     = flag.Duration("linger", 0, "keep the ops endpoint serving this long after the run completes, for post-run scraping (requires -ops)")
		flightDir  = flag.String("flightdir", "", "write automatic flight-recorder dumps (watchdog wedge, abort storm, livelock escalation, cancellation) into this directory (requires -ops)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (alias kept for old scripts; -ops also serves live profiles at /debug/pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file (alias kept for old scripts; -ops also serves live profiles at /debug/pprof)")
		recordPath = flag.String("record", "", "capture the run into a .rsrec recording at this path (replay or backfill it with rsreplay)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	params := workload.BuildParams{
		Name:        *wname,
		Seed:        *seed,
		Scale:       *scale,
		Granularity: *gran,
		Crossing:    *crossed,
	}
	w, err := workload.Build(params)
	if err != nil {
		fatal(err)
	}
	p, err := buildProtocol(*pname, w)
	if err != nil {
		fatal(err)
	}
	var (
		wal  storage.WALSink
		swal *storage.ShardedWAL
	)
	if *walPath != "" {
		swal, err = storage.OpenShardedWAL(*walPath, storage.SegmentedOptions{SegmentBytes: *walSegs})
		if err != nil {
			fatal(err)
		}
		wal = swal
	}
	// With -dump, stdout carries only the machine-readable instance
	// file; status goes to stderr.
	status := os.Stdout
	if *dump {
		status = os.Stderr
	}

	var (
		tracer *trace.Tracer
		buf    *trace.Buffer
	)
	if *tracePath != "" || *chromePath != "" || *dotDir != "" {
		buf = trace.NewBuffer()
		tracer = trace.New(buf)
		if *dotDir != "" {
			if err := os.MkdirAll(*dotDir, 0o755); err != nil {
				fatal(err)
			}
			dir := *dotDir
			tracer.DotSink = func(name, dot string) {
				path := filepath.Join(dir, name+".dot")
				if err := os.WriteFile(path, []byte(dot), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "rssim: dot snapshot:", err)
				}
			}
		}
	}
	var registry *metrics.Registry
	if *metricsOn {
		registry = metrics.NewRegistry()
	}
	var (
		plane  *obs.Plane
		opsSrv *obs.Server
	)
	if *opsAddr != "" {
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				fatal(err)
			}
		}
		plane = obs.New(obs.Options{Registry: registry, DumpDir: *flightDir})
		opsSrv, err = plane.Serve(*opsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(status, "ops: serving http://%s (/metrics /healthz /debug/flight /debug/spans /debug/trace /debug/pprof)\n", opsSrv.Addr())
	}
	var injector *fault.Injector
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		injector = fault.New(*seed, spec)
		fmt.Fprintf(status, "faults: armed %s (seed %d)\n", spec, *seed)
		if plane != nil {
			// Self-describing dumps: the spec, seed and live fingerprint
			// ride every flight dump's header and /healthz.
			plane.AnnotateFaults(spec.String(), *seed, injector.Fingerprint)
		}
	}
	var recorder *record.Recorder
	if *recordPath != "" {
		m := record.Manifest{
			Workload:   params,
			Protocol:   *pname,
			Seed:       *seed,
			MPL:        *mpl,
			Shards:     *shards,
			Concurrent: *concurrent,
		}
		if injector != nil {
			m.FaultSpec = injector.Spec().String()
			m.FaultSeed = *seed
		}
		if swal != nil {
			m.WALMode = "segmented"
			m.WALSegmentBytes = *walSegs
		}
		recorder = record.NewRecorder(m)
		recorder.SetInitial(w.Initial)
		if registry != nil {
			recorder.SetMetrics(registry)
		}
		if plane != nil {
			plane.SetRecording(*recordPath, recorder.StageEvents)
		}
		fmt.Fprintf(status, "record: capturing to %s\n", *recordPath)
	}

	fmt.Fprintf(status, "workload=%s programs=%d protocol=%s seed=%d mpl=%d\n",
		w.Name, len(w.Programs), p.Name(), *seed, *mpl)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var hooks txn.Hooks
	if recorder != nil {
		hooks = recorder.Hooks(txn.Hooks{})
	}
	res, store, err := relser.Run(ctx, w, p, relser.RunOptions{
		Seed:       *seed,
		MPL:        *mpl,
		WAL:        wal,
		Concurrent: *concurrent,
		Shards:     *shards,
		Tracer:     tracer,
		Metrics:    registry,
		Obs:        plane,
		Faults:     injector,
		Hooks:      hooks,
	})
	if injector != nil {
		reportFaults(status, injector)
	}
	if swal != nil {
		// Close before judging the run: under injected faults the run
		// error is the interesting outcome, but the segment chain should
		// still land on disk for rsrecover.
		swal.Close() //nolint:errcheck // a latched crash error is already folded into the run error
		ws := swal.Stats()
		fmt.Fprintf(status, "wal: appends=%d group-commits=%d fsyncs=%d rotations=%d\n",
			ws.Appends, ws.GroupCommits, ws.Fsyncs, ws.Rotations)
	}
	if recorder != nil {
		if swal != nil {
			if set, serr := storage.ReadWALDir(*walPath); serr == nil {
				recorder.SetWALBytes(record.FlattenSegmentSet(set))
			} else {
				fmt.Fprintln(os.Stderr, "rssim: record: reading wal dir:", serr)
			}
		}
		// An invariant violation arrives as (res != nil, err != nil); let
		// the recorder re-derive verdict and invariant from the result so
		// replay (which does the same) compares like with like.
		finishErr := err
		if res != nil && err != nil {
			finishErr = nil
		}
		recorder.Finish(res, finishErr, injector, store, w)
		if werr := recorder.WriteFile(*recordPath); werr != nil {
			fmt.Fprintln(os.Stderr, "rssim: record:", werr)
		} else {
			fmt.Fprintf(status, "record: wrote %s (%d stage events)\n", *recordPath, recorder.StageEvents())
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(status, res)
	if _, ok := p.(sched.Retirer); ok {
		rs := res.Retire
		fmt.Fprintf(status, "rsg-retire: live=%d retired=%d epochs=%d rebases=%d fastpath=%.1f%% (%d/%d)\n",
			rs.LiveVertices, rs.RetiredVertices, rs.GraphEpochs, rs.Rebases,
			100*rs.HitRate(), rs.FastPathHits, rs.FastPathHits+rs.FastPathMisses)
	}
	if w.Invariant != nil {
		fmt.Fprintln(status, "data invariant: ok")
	}
	if *schedule {
		s, _, err := res.CommittedSchedule()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(status, "committed schedule:", s)
	}
	if *timeline {
		fmt.Fprint(status, res.Timeline(64))
	}
	if *recovery {
		props, err := res.RecoveryProperties()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(status, "recovery: recoverable=%v aca=%v strict=%v\n", props.Recoverable, props.ACA, props.Strict)
		if props.Violation != "" {
			fmt.Fprintln(status, "  first violation:", props.Violation)
		}
	}
	if buf != nil {
		reportTrace(status, buf, w, *tracePath, *chromePath)
	}
	if registry != nil {
		snap := registry.Snapshot()
		if _, err := snap.Table("runtime metrics").WriteTo(status); err != nil {
			fatal(err)
		}
	}
	if *dump {
		s, sp, err := res.CommittedSchedule()
		if err != nil {
			fatal(err)
		}
		inst := &core.Instance{
			Set:       s.Set(),
			Spec:      sp,
			Schedules: map[string]*core.Schedule{"committed": s},
			Names:     []string{"committed"},
		}
		fmt.Print(core.FormatInstance(inst))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if opsSrv != nil {
		if *linger > 0 {
			fmt.Fprintf(status, "ops: lingering %s for post-run scrapes (http://%s)\n", *linger, opsSrv.Addr())
			time.Sleep(*linger)
		}
		if err := opsSrv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rssim: ops shutdown:", err)
		}
		fmt.Fprintf(status, "ops: flight recorder retained %d of %d events; %d spans\n",
			len(plane.Flight()), plane.Recorder().Recorded(), len(plane.Spans()))
		dumps, derrs := plane.Dumps()
		for _, d := range dumps {
			fmt.Fprintln(status, "ops: flight dump:", d)
		}
		for _, derr := range derrs {
			fmt.Fprintln(os.Stderr, "rssim:", derr)
		}
	}
	if *verify {
		if err := res.Verify(); err != nil {
			fmt.Fprintln(status, "verification: FAILED:", err)
			os.Exit(2)
		}
		fmt.Fprintln(status, "verification: committed schedule is relatively serializable (Theorem 1)")
	}
}

// reportTrace writes the requested trace outputs and summarizes the
// captured events: kind counts, every scheduler rejection explanation
// (with its concrete RSG cycle, when the protocol names one), and an
// offline replay verification of those cycles against the theory.
func reportTrace(status *os.File, buf *trace.Buffer, w *workload.Workload, tracePath, chromePath string) {
	events := buf.Events()
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteJSONL(f, events); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(status, "trace: %d events -> %s\n", len(events), tracePath)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(f, events); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(status, "trace: chrome trace_event -> %s\n", chromePath)
	}
	counts := trace.CountKinds(events)
	var kinds []string
	for k, n := range counts {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sortStrings(kinds)
	fmt.Fprintln(status, "trace events:", strings.Join(kinds, " "))
	rejects := 0
	for _, ev := range events {
		if ev.Kind != trace.KindCycleReject && ev.Kind != trace.KindConflictCycle && ev.Kind != trace.KindDeadlock {
			continue
		}
		rejects++
		fmt.Fprintf(status, "  [%s] instance %d %s: %s\n", ev.Kind, ev.Instance, ev.Op, ev.Reason)
		if ev.Cycle != nil {
			fmt.Fprintf(status, "    cycle: %s\n", ev.Cycle)
		}
	}
	if n := counts[trace.KindCycleReject]; n > 0 {
		checked, err := trace.VerifyCycles(events, w.Oracle.Cuts)
		if err != nil {
			fmt.Fprintf(status, "trace: cycle replay verification FAILED after %d cycle(s): %v\n", checked, err)
		} else {
			fmt.Fprintf(status, "trace: all %d rejection cycle(s) replay-verified against the offline RSG\n", checked)
		}
	}
}

// reportFaults prints the injector's realized firing schedule and its
// fingerprint; the same seed and spec reproduce both exactly.
func reportFaults(status *os.File, in *fault.Injector) {
	fmt.Fprintf(status, "faults: fingerprint %s\n", in.Fingerprint())
	for _, ps := range in.Schedule() {
		fmt.Fprintf(status, "  %-18s consulted %d fired %d", ps.Point, ps.Calls, ps.Fired)
		if n := len(ps.FiredAt); n > 0 {
			show := ps.FiredAt
			if n > 8 {
				show = show[:8]
			}
			fmt.Fprintf(status, " at calls %v", show)
			if n > 8 {
				fmt.Fprintf(status, " (+%d more)", n-8)
			}
		}
		fmt.Fprintln(status)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// buildProtocol resolves a protocol name against the sched registry,
// binding the workload's atomicity oracle to protocols that take one.
func buildProtocol(name string, w *workload.Workload) (sched.Protocol, error) {
	return sched.NewProtocol(name, w.Oracle)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rssim:", err)
	os.Exit(1)
}
