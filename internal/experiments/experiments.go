// Package experiments regenerates every figure and claim of the paper
// as a runnable experiment, plus the studies the paper argues for but
// does not run and the two certifications of the engine against it (see
// DESIGN.md §4 for the index). Performance is not measured here: every
// throughput, latency and memory number lives on the benchmark ladder
// (benchmark/, BENCHMARK.json), which is why the IDs skip E15, E17, E18
// and E20 — those were the performance studies the ladder superseded.
//
//	E1  Figure 1 and the §2 schedules Sra/Srs/S2 — class membership
//	E2  Figure 2 — transitive depends-on is required (ablation)
//	E3  Figure 3 — exact RSG arc reconstruction
//	E4  Figure 4 — relatively serial but not relatively consistent
//	E5  Figure 5 — class census over full interleaving spaces
//	E6  §3 — polynomial RSG testing: scaling with schedule length
//	E7  §1/[KB92] — exponential relatively-consistent test vs RSG
//	E8  §1/§5 — online protocols on the banking workload
//	E9  §5 — atomicity granularity sweep
//	E10 Lemma 1 — absolute atomicity collapses to conflict
//	    serializability (randomized property check)
//	E11 §4 — related-work models compile into relative atomicity;
//	    expressibility separation from multilevel atomicity
//	E12 §4 — transaction chopping [SSV92]: SC-graph correctness and the
//	    embedding into relative atomicity
//	E13 runtime robustness: concurrent goroutine runs certified by the
//	    offline theory
//	E14 state semantics: conflict-equivalent schedules share final
//	    states; admitted non-serializable interleavings do not match any
//	    serial state — the declared trade of the model
//	E16 chaos certification: seeded fault injection (WAL damage,
//	    crashes, abort storms, latency spikes, shard wedges) with
//	    RSG-certified commits, invariant-clean recovery from every WAL
//	    prefix, watchdog-bounded wedges and byte-identical replays
//	E19 record/replay harness: every deterministic recorded run replays
//	    byte-identically (verdicts, fault schedules, WAL bytes, final
//	    state), a recorded watchdog wedge replays as the same incident
//	    class, backfill under absolute atomicity yields a stable
//	    divergence report, and the recording tap costs <5%
//
// Each experiment produces a Report of tables and checked claims; the
// rsbench binary renders them, and EXPERIMENTS.md records one full
// run.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/trace"
)

// Claim is one paper assertion an experiment verifies mechanically.
type Claim struct {
	Text string `json:"text"`
	Pass bool   `json:"pass"`
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Claims []Claim
	// Notes carries free-form commentary (expected shapes, caveats).
	Notes []string
}

// Pass reports whether every claim held.
func (r *Report) Pass() bool {
	for _, c := range r.Claims {
		if !c.Pass {
			return false
		}
	}
	return true
}

// AddClaim records a checked claim.
func (r *Report) AddClaim(pass bool, format string, args ...any) {
	r.Claims = append(r.Claims, Claim{Text: fmt.Sprintf(format, args...), Pass: pass})
}

// AddNote records commentary.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		sb.WriteByte('\n')
		sb.WriteString(t.String())
	}
	if len(r.Claims) > 0 {
		sb.WriteString("\nClaims:\n")
		for _, c := range r.Claims {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&sb, "  [%s] %s\n", mark, c.Text)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "\nNote: %s\n", n)
	}
	return sb.String()
}

// Runner produces a report; Options tune cost for bench vs CLI runs.
type Runner func(opts Options) (*Report, error)

// Options tunes experiment sizes.
type Options struct {
	// Quick shrinks sweeps for use inside unit tests and smoke runs.
	Quick bool
	// Seed drives every randomized component.
	Seed int64
	// Tracer, when set, receives structured runtime events from every
	// workload run the experiment performs.
	Tracer *trace.Tracer
	// Metrics, when set, accumulates runtime counters and histograms
	// across the experiment's runs.
	Metrics *metrics.Registry
	// Obs, when set, attaches the live observability plane to every
	// workload run the experiment performs.
	Obs *obs.Plane
	// Shards stripes the concurrent driver's hot path in experiments
	// that run the goroutine runtime (E13, E16's concurrent legs, E19's wedge); zero
	// means one shard.
	Shards int
	// FaultSpec, when non-empty, replaces E16's built-in chaos specs
	// with one custom fault spec (internal/fault grammar, e.g.
	// "wal.torn:0.01,txn.abort:0.2"). Other experiments ignore it.
	FaultSpec string
	// Timeout, when positive, bounds each workload run inside an
	// experiment with a context deadline (workload.RunOptions.Timeout);
	// an expired run surfaces as an experiment error, not a hang.
	Timeout time.Duration
	// RecordDir, when non-empty, makes E16 capture every deterministic
	// chaos run as a .rsrec artifact (internal/record) in that
	// directory, named e16-<leg>-<protocol>-seed<N>.rsrec. Any failed
	// leg can then be time-traveled with rsreplay; CI uploads the
	// directory when the chaos job fails. Other experiments ignore it.
	RecordDir string
}

// TableData is a metrics.Table flattened for JSON artifacts.
type TableData struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Artifact is the machine-readable form of a Report; rsbench -json
// writes one per experiment as BENCH_<id>.json.
type Artifact struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Quick  bool        `json:"quick"`
	Seed   int64       `json:"seed"`
	WallMS int64       `json:"wall_ms"`
	Pass   bool        `json:"pass"`
	Claims []Claim     `json:"claims"`
	Tables []TableData `json:"tables"`
	Notes  []string    `json:"notes,omitempty"`
	// GitSHA and Shards stamp the provenance of a benchmark artifact:
	// the commit the binary was built from and the -shards setting the
	// run used. rsbench fills GitSHA; Shards mirrors Options.Shards.
	GitSHA string `json:"git_sha,omitempty"`
	Shards int    `json:"shards,omitempty"`
}

// Artifact flattens the report for JSON output. Wall time is measured
// by the caller (the report itself is timing-free and deterministic).
func (r *Report) Artifact(opts Options, wallMS int64) Artifact {
	a := Artifact{
		ID:     r.ID,
		Title:  r.Title,
		Quick:  opts.Quick,
		Seed:   opts.Seed,
		WallMS: wallMS,
		Pass:   r.Pass(),
		Claims: r.Claims,
		Notes:  r.Notes,
		Shards: opts.Shards,
	}
	for _, t := range r.Tables {
		a.Tables = append(a.Tables, TableData{Title: t.Title, Columns: t.Columns, Rows: t.Rows()})
	}
	return a
}

var registry = map[string]struct {
	title string
	run   Runner
}{
	"E1":  {"Figure 1 schedules: relatively atomic / serial / serializable", runE1},
	"E2":  {"Figure 2: direct conflicts are not sufficient (ablation)", runE2},
	"E3":  {"Figure 3: exact relative serialization graph", runE3},
	"E4":  {"Figure 4: relatively serial but not relatively consistent", runE4},
	"E5":  {"Figure 5: class census over full interleaving spaces", runE5},
	"E6":  {"RSG test scaling (polynomial, §3)", runE6},
	"E7":  {"Relatively-consistent search blowup vs RSG [KB92]", runE7},
	"E8":  {"Online protocols on the banking workload (§1)", runE8},
	"E9":  {"Atomicity granularity sweep (§5)", runE9},
	"E10": {"Lemma 1: absolute atomicity = conflict serializability", runE10},
	"E11": {"Related-work models and multilevel expressibility (§4)", runE11},
	"E12": {"Transaction chopping [SSV92] and its embedding (§4)", runE12},
	"E13": {"Concurrent runtime certification (goroutine driver)", runE13},
	"E14": {"State semantics of the relaxation (replay)", runE14},
	"E16": {"Chaos certification under deterministic fault injection", runE16},
	"E19": {"Record/replay determinism, incident time-travel and backfill", runE19},
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Title returns an experiment's title.
func Title(id string) string { return registry[id].title }

// Run executes one experiment.
func Run(id string, opts Options) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	rep, err := e.run(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %v", id, err)
	}
	rep.ID, rep.Title = id, e.title
	return rep, nil
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
