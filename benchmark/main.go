// Command benchmark is the repo's fixed benchmark ladder: seven pinned
// workloads, each measured end to end with tracing off and, separately,
// with every layer timed from outside. See README.md.
//
// The driver's contract (BENCHMARK.json) runs one workload per
// invocation:
//
//	bash benchmark/run.sh --workload mix-rel --seed 1 --seconds 10 --trace 0
//
// and reads the last line of standard output. -suite, -aa and -compare
// are for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the contract's result object, printed last on stdout.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the knobs of one measurement.
type options struct {
	seed    int64
	seconds float64
	quick   bool
}

// outcome is everything one measurement of one workload produced.
type outcome struct {
	spec      *spec
	size      int
	attempted int
	failed    int
	failures  []string
	reps      int // timed untraced reps
	samples   int // pooled latency samples
	endToEnd  map[string]float64
	spread    map[string]float64 // per rep-median metric: uncertainty of that median, as a share of it
	perLayer  map[string]float64 // traced measurements only
	spans     []rawSpan
}

func (o *outcome) absorb(r *rep) {
	o.attempted += max(r.programs, 1)
	o.failed += r.programs - r.committed
	if len(r.failures) > 0 && r.programs == r.committed {
		o.failed += len(r.failures)
	}
	o.failures = append(o.failures, r.failures...)
}

// quantile returns the p-quantile of v by linear interpolation between
// order statistics (p = 0.5 is the median).
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	i := min(int(x), len(s)-1)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// uncertainty estimates how far the median of v may be from the median
// of another run's reps, as a share of it: the quartile distance over
// the root of the count (0 below four values).
func uncertainty(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	return ratio(quantile(v, 0.75)-quantile(v, 0.25), median(v)) / math.Sqrt(float64(len(v)))
}

// tps is a rep's raw throughput; multiply by r.slowdown to scale it to
// the nominal host speed.
func tps(r *rep) float64 { return ratio(float64(r.committed), r.runS) }

// pinnedInputs is how many program sets a workload cycles through. The
// sets are pinned (generator seeds 1..8, the same in every run): the
// cost of a set under RSGT varies by a factor of two between sets of
// the size a 10 s run can afford, so sets drawn from the seed would make
// every number mostly a property of the draw. The seed drives what a
// closed-loop generator is free to choose: the order in which the
// clients' operations arrive, and their restart back-off.
const pinnedInputs = 8

// measure runs one workload: the Theorem 1 gate at reduced size (which
// also warms the process up), then timed reps over the pinned program
// sets in turn until the time is used up. Untraced measurements time
// only untraced reps. Traced measurements alternate untraced and traced
// reps of the same configuration, so the tracing overhead is taken
// within one process.
func measure(s *spec, o options, traced bool) *outcome {
	out := &outcome{spec: s, size: s.size}
	minReps := 4
	if o.quick {
		out.size, minReps = s.quick, 2
	}
	out.absorb(runRep(s, 1, o.seed, min(s.gate, out.size), false, true))

	// A pass of the reference kernel runs before every rep and after the
	// last; a rep's host slowdown is the mean of the passes around it.
	var (
		plain, timed, twin []*rep
		seq                []*rep
		passes             []time.Duration
	)
	run := func(s *spec, input int64, traced bool) *rep {
		passes = append(passes, refKernel())
		// Each program set gets its own driver seed, or the sets of one
		// run would all see the same stream of shuffles.
		r := runRep(s, input, o.seed*pinnedInputs+input, out.size, traced, false)
		seq = append(seq, r)
		return r
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		input := int64(1 + i%pinnedInputs)
		if o.quick {
			input = 1
		}
		plain = append(plain, run(s, input, false))
		if !traced {
			continue
		}
		timed = append(timed, run(s, input, true))
		if s.planeless != "" {
			twin = append(twin, run(findWorkload(s.planeless), input, false))
		}
	}
	passes = append(passes, refKernel())
	for i, r := range seq {
		r.slowdown = 1 // a run that sleeps on the simulated fsync does not slow with the host
		if !s.wal {
			r.slowdown = float64(passes[i]+passes[i+1]) / 2 / float64(refNominal)
		}
		out.absorb(r)
	}
	if out.failed > 0 {
		return out
	}
	if s.serial() {
		// Same programs, same seed, deterministic driver: every rep of a
		// program set, decorated or not, must commit the same schedule.
		first := map[int64]*rep{}
		for _, r := range append(append([]*rep(nil), plain...), timed...) {
			f, seen := first[r.input]
			if !seen {
				first[r.input] = r
			} else if r.digest != f.digest || r.restarts != f.restarts || r.retire != f.retire {
				out.failed++
				out.failures = append(out.failures, "serial reps of one program set disagree on schedule digest, restarts or retirement stats")
				return out
			}
		}
	}
	for _, r := range timed {
		if r.shardSafe != plain[0].shardSafe {
			out.failed++
			out.failures = append(out.failures, "decorated protocol changed IsShardSafe")
			return out
		}
	}

	// Rates and memory: one value per rep, median over reps. Latency:
	// percentiles over the pooled samples of all reps, each sample scaled
	// by its rep's host slowdown.
	out.reps = len(plain)
	perRep := map[string][]float64{}
	var lat []float64
	for _, r := range plain {
		c := float64(r.committed)
		perRep["setup_s"] = append(perRep["setup_s"], r.setupS/r.slowdown)
		perRep["commit_tps"] = append(perRep["commit_tps"], tps(r)*r.slowdown)
		perRep["attempts_per_commit"] = append(perRep["attempts_per_commit"], float64(r.committed+r.restarts)/c)
		perRep["alloc_kb_per_txn"] = append(perRep["alloc_kb_per_txn"], float64(r.allocB)/1024/c)
		perRep["retained_mb"] = append(perRep["retained_mb"], float64(r.retainedB)/(1<<20))
		for _, ns := range r.latNs {
			lat = append(lat, ns/r.slowdown)
		}
	}
	out.samples = len(lat)
	out.endToEnd = map[string]float64{
		"commit_latency_p50_ms": quantile(lat, 0.50) / 1e6,
		"commit_latency_p99_ms": quantile(lat, 0.99) / 1e6,
	}
	out.spread = map[string]float64{}
	for name, v := range perRep {
		out.endToEnd[name] = median(v)
		out.spread[name] = uncertainty(v)
	}
	if !traced {
		return out
	}

	out.perLayer = map[string]float64{}
	for _, d := range perLayer {
		var v []float64
		for _, r := range timed {
			v = append(v, r.layer[d.Name])
		}
		out.perLayer[d.Name] = median(v)
	}
	rate := func(reps []*rep) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, tps(r)*r.slowdown)
		}
		return median(v)
	}
	var ms, slow []float64
	for i, p := range passes {
		ms = append(ms, float64(p)/1e6)
		if i < len(seq) {
			slow = append(slow, seq[i].slowdown)
		}
	}
	out.perLayer["host.ref_pass_ms"] = median(ms)
	out.perLayer["host.slowdown"] = median(slow)
	out.perLayer["trace.overhead_ratio"] = ratio(rate(timed), rate(plain))
	if len(twin) > 0 {
		out.perLayer["obs.tps_ratio_sampled"] = ratio(rate(plain), rate(twin))
	}
	out.spans = timed[len(timed)-1].spans
	return out
}

// contractLine renders an outcome the way the driver reads it.
func contractLine(out *outcome, traced bool) line {
	l := line{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, out.endToEnd
	if traced {
		defs, vals = perLayer, out.perLayer
	}
	for _, d := range defs {
		l.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return l
}

// writeSpans writes the last traced rep's spans, one JSON object per
// line; parent indexes the spans of the same instance, in file order.
func writeSpans(dir string, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, out.spec.name+".spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range out.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the driver's result line")
		seed    = flag.Int64("seed", 1, "workload and driver seed")
		seconds = flag.Float64("seconds", 10, "how long each measurement times reps")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced reps")
		suite   = flag.Bool("suite", false, "run every workload, untraced then traced, and write out/suite-seed<N>.json")
		aa      = flag.Bool("aa", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
		compare = flag.Bool("compare", false, "compare two suite artifacts: -compare a.json b.json")
		quick   = flag.Bool("quick", false, "tiny sizes, for smoke tests; numbers mean nothing")
		outDir  = flag.String("out", "out", "directory for span files and suite artifacts")
	)
	flag.Parse()
	runtime.GOMAXPROCS(par)
	o := options{seed: *seed, seconds: *seconds, quick: *quick}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail("-compare needs two artifact files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail("%v", err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *aa:
		a, b := runSuite(o), runSuite(o)
		for _, art := range []*artifact{a, b} {
			if art.failed() {
				fail("correctness checks failed; see above")
			}
		}
		if differ := printComparison(os.Stdout, a, b, true); differ > 0 {
			fail("%d end-to-end metrics differ by more than their bound between two runs of the same code", differ)
		}
	case *suite:
		art := runSuite(o)
		path, err := art.write(*outDir)
		if err != nil {
			fail("%v", err)
		}
		art.print(os.Stdout)
		fmt.Println("wrote", path)
		if art.failed() {
			os.Exit(1)
		}
	default:
		s := findWorkload(*name)
		if s == nil {
			fail("unknown workload %q; have %v", *name, workloadNames())
		}
		out := measure(s, o, *trace == 1)
		for _, f := range out.failures {
			fmt.Fprintln(os.Stderr, "benchmark: FAILED", s.name+":", f)
		}
		if *trace == 1 && out.failed == 0 {
			if err := writeSpans(*outDir, out); err != nil {
				fail("%v", err)
			}
		}
		b, err := json.Marshal(contractLine(out, *trace == 1))
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(b))
		if out.failed > 0 {
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	return names
}
