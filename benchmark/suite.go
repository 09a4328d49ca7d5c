package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

// env stamps an artifact with what the numbers depend on.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Par        int     `json:"par"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_measurement"`
	Quick      bool    `json:"quick"`
	Fsync      string  `json:"fsync"`
	// FsyncObservedMs is bank-stack's storage.wal.fsync_ms_mean: what the
	// host's timers make of the simulated delay.
	FsyncObservedMs float64 `json:"fsync_observed_ms_mean"`
	SuiteWallS      float64 `json:"suite_wall_s"`
}

type workloadReport struct {
	Name     string             `json:"name"`
	Size     int                `json:"size"`
	Gate     int                `json:"gate_size"`
	Clients  int                `json:"clients"`
	Reps     int                `json:"reps"`
	Samples  int                `json:"latency_samples"`
	EndToEnd map[string]value   `json:"end_to_end"`
	Spread   map[string]float64 `json:"spread"`
	PerLayer map[string]value   `json:"per_layer"`
	Failures []string           `json:"failures,omitempty"`
}

// artifact is what -suite writes. Claim is always null: the benchmark
// defines numbers, it never asserts a gain.
type artifact struct {
	Claim     any              `json:"claim"`
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

func (a *artifact) failed() bool {
	for _, w := range a.Workloads {
		if len(w.Failures) > 0 {
			return true
		}
	}
	return false
}

// runSuite measures every workload, untraced for the end-to-end
// numbers and then traced for the per-layer ones.
func runSuite(o options) *artifact {
	start := time.Now()
	art := &artifact{Env: env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Par: par,
		GoVersion: runtime.Version(), GitSHA: gitSHA(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Fsync: fmt.Sprintf("simulated %v", fsyncDelay),
	}}
	for _, s := range workloads {
		plain := measure(s, o, false)
		traced := measure(s, o, true)
		rep := workloadReport{
			Name: s.name, Size: plain.size, Gate: min(s.gate, plain.size), Clients: s.clients(),
			Reps: plain.reps, Samples: plain.samples, Spread: plain.spread,
			EndToEnd: map[string]value{}, PerLayer: map[string]value{},
			Failures: append(plain.failures, traced.failures...),
		}
		for _, d := range endToEnd {
			rep.EndToEnd[d.Name] = value{plain.endToEnd[d.Name], d.Unit}
		}
		for _, d := range perLayer {
			rep.PerLayer[d.Name] = value{traced.perLayer[d.Name], d.Unit}
		}
		if s.wal {
			art.Env.FsyncObservedMs = traced.perLayer["storage.wal.fsync_ms_mean"]
		}
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "benchmark: FAILED", s.name+":", f)
		}
		art.Workloads = append(art.Workloads, rep)
	}
	art.Env.SuiteWallS = time.Since(start).Seconds()
	return art
}

func gitSHA() string {
	if sha := os.Getenv("RELSER_BENCH_GIT_SHA"); sha != "" {
		return sha // run.sh asks git; the driver's checkout is not a repository
	}
	return "unknown"
}

func (a *artifact) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("suite-seed%d.json", a.Env.Seed))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func readArtifact(path string) (*artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &artifact{}
	if err := json.Unmarshal(b, a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// print lists every metric of every workload by name with its unit.
func (a *artifact) print(w io.Writer) {
	e := a.Env
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d par=%d %s git=%s seed=%d seconds=%g quick=%v fsync=%s (observed mean %.3f ms) suite wall %.1f s\n",
		e.NProc, e.GOMAXPROCS, e.Par, e.GoVersion, e.GitSHA, e.Seed, e.Seconds, e.Quick, e.Fsync, e.FsyncObservedMs, e.SuiteWallS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range a.Workloads {
		fmt.Fprintf(tw, "\n%s\tsize %d, gate %d, %d clients, %d reps, %d latency samples\t\n", r.Name, r.Size, r.Gate, r.Clients, r.Reps, r.Samples)
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "  %s\t%.6g %s\t(uncertainty %.1f%%, bound %.0f%%)\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit, 100*r.Spread[d.Name], 100*d.Bound)
		}
		for _, d := range perLayer {
			fmt.Fprintf(tw, "  %s\t%.6g %s\t\n", d.Name, r.PerLayer[d.Name].Value, d.Unit)
		}
	}
	tw.Flush()
}

// printComparison prints, per workload and end-to-end metric, both
// values, b as a ratio of a, the bound and a verdict, and returns how
// many metrics count against b. With symmetric set (-aa) a difference
// in either direction counts; otherwise only b being worse does. A
// metric whose median over reps is, on either side, uncertain by more
// than a third of its bound is unresolved, not ok.
func printComparison(w io.Writer, a, b *artifact, symmetric bool) int {
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict\t")
	byName := map[string]workloadReport{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			change := ratio(vb, va) - 1 // positive: b is larger
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > d.Bound || symmetric && math.Abs(change) > d.Bound:
				verdict = "worse"
				if symmetric {
					verdict = "differs"
				}
				bad++
			case 3*max(ra.Spread[d.Name], rb.Spread[d.Name]) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f of a\t%.0f%%\t%s\t\n", ra.Name, d.Name, va, vb, ratio(vb, va), 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	return bad
}

func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readArtifact(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readArtifact(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s (git %s, seed %d)\nb: %s (git %s, seed %d)\n", pathA, a.Env.GitSHA, a.Env.Seed, pathB, b.Env.GitSHA, b.Env.Seed)
	return printComparison(w, a, b, false), nil
}
