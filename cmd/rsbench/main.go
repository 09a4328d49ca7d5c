// rsbench regenerates the paper's figures and the reproduction's
// quantitative studies as experiment reports (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for a recorded run).
//
// Usage:
//
//	rsbench                 # run every experiment, full size
//	rsbench -e E3           # one experiment
//	rsbench -e E6,E7 -quick # quick sizes
//	rsbench -e E8 -json     # also write BENCH_E8.json
//	rsbench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"relser/internal/experiments"
	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/trace"
)

func main() {
	var (
		which      = flag.String("e", "all", "comma-separated experiment ids, or 'all'")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		seed       = flag.Int64("seed", 1, "seed for randomized components")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonOut    = flag.Bool("json", false, "write each report as BENCH_<id>.json")
		outDir     = flag.String("outdir", ".", "directory for -json artifacts")
		tracePath  = flag.String("trace", "", "capture structured runtime events (JSONL) across all experiments")
		metricsOn  = flag.Bool("metrics", false, "print the accumulated runtime metrics registry at the end")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		shards     = flag.Int("shards", 1, "shard count for the concurrent driver's hot path (rounded up to a power of two)")
		faultSpec  = flag.String("faults", "", "E16: replace the built-in chaos specs with this fault spec (point:rate[:duration],...)")
		timeout    = flag.Duration("timeout", 0, "bound each workload run inside an experiment with a context deadline (0 disables); an expired run errors the experiment instead of hanging")
		opsAddr    = flag.String("ops", "", "serve the live ops endpoint (/metrics, /healthz, /debug/flight, /debug/trace, pprof) on this address while experiments run, e.g. :6060")
		recordDir  = flag.String("record", "", "E16: capture every deterministic chaos run as a .rsrec artifact in this directory (time-travel failures with rsreplay)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, experiments.Title(id))
		}
		return
	}
	ids := experiments.IDs()
	if *which != "all" {
		ids = nil
		for _, id := range strings.Split(*which, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

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

	opts := experiments.Options{Quick: *quick, Seed: *seed, Shards: *shards, FaultSpec: *faultSpec, Timeout: *timeout, RecordDir: *recordDir}
	if *recordDir != "" {
		if err := os.MkdirAll(*recordDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var buf *trace.Buffer
	if *tracePath != "" {
		buf = trace.NewBuffer()
		opts.Tracer = trace.New(buf)
	}
	if *metricsOn || *opsAddr != "" {
		opts.Metrics = metrics.NewRegistry()
	}
	var opsSrv *obs.Server
	if *opsAddr != "" {
		plane := obs.New(obs.Options{Registry: opts.Metrics})
		opts.Obs = plane
		srv, err := plane.Serve(*opsAddr)
		if err != nil {
			fatal(err)
		}
		opsSrv = srv
		fmt.Printf("ops: live endpoint on http://%s (/metrics /healthz /debug/flight /debug/spans /debug/trace /debug/pprof/)\n", srv.Addr())
	}

	// Every requested experiment runs even if an earlier one errors;
	// the summary table at the end reports per-experiment outcomes.
	type outcome struct {
		id     string
		wall   time.Duration
		status string // ok | claims-failed | error
		err    error
	}
	var (
		outcomes []outcome
		failed   int
		errored  int
	)
	for i, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, opts)
		wall := time.Since(start)
		o := outcome{id: id, wall: wall, status: "ok", err: err}
		if err != nil {
			o.status = "error"
			errored++
			fmt.Fprintln(os.Stderr, "rsbench:", err)
			outcomes = append(outcomes, o)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Println(rep)
		fmt.Printf("(%s wall %s)\n", id, wall.Round(time.Millisecond))
		if !rep.Pass() {
			o.status = "claims-failed"
			failed++
		}
		if *jsonOut {
			a := rep.Artifact(opts, wall.Milliseconds())
			a.GitSHA = gitSHA()
			if err := writeArtifact(*outDir, a); err != nil {
				fatal(err)
			}
		}
		outcomes = append(outcomes, o)
	}

	if opsSrv != nil {
		if err := opsSrv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rsbench: ops close:", err)
		}
	}
	if buf != nil {
		if err := writeTrace(*tracePath, buf); err != nil {
			fatal(err)
		}
	}
	if opts.Metrics != nil {
		fmt.Println()
		if _, err := opts.Metrics.Snapshot().Table("runtime metrics (all experiments)").WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
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

	if len(ids) > 1 {
		tb := metrics.NewTable("Summary", "experiment", "status", "wall")
		for _, o := range outcomes {
			tb.AddRow(o.id, o.status, o.wall.Round(time.Millisecond).String())
		}
		fmt.Println()
		if _, err := tb.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if errored > 0 {
		fmt.Fprintf(os.Stderr, "rsbench: %d experiment(s) errored\n", errored)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rsbench: %d experiment(s) with failing claims\n", failed)
		os.Exit(2)
	}
}

func writeArtifact(dir string, a experiments.Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+a.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(%s artifact -> %s)\n", a.ID, path)
	return nil
}

// gitSHA identifies the commit a benchmark artifact was produced from:
// the build info's vcs.revision when the binary was built from a clean
// module checkout, the working tree's HEAD under `go run`, and
// "unknown" when neither is available.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return sha
		}
	}
	return "unknown"
}

func writeTrace(path string, buf *trace.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events := buf.Events()
	if err := trace.WriteJSONL(f, events); err != nil {
		return err
	}
	fmt.Printf("(trace: %d events -> %s)\n", len(events), path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsbench:", err)
	os.Exit(1)
}
