// Package workload generates the transaction mixes the paper motivates
// (§1, §5) together with their relative atomicity specifications:
//
//   - Banking: families of accounts with customer transfers, per-family
//     credit audits and a full bank audit — the [Lyn83] example the
//     paper retells in §1;
//   - CADCAM: teams of designers updating module parts, with free
//     interleaving at part boundaries inside a team and atomicity
//     across teams;
//   - LongLived: one long scan-and-update transaction with unit
//     boundaries after every object, amid many short transactions —
//     the altruistic-locking scenario of [SGMA87] that §5 presents
//     relative atomicity as generalizing;
//   - Synthetic: uniform random read/write programs with a tunable
//     atomicity granularity knob, for scaling sweeps.
//
// Each workload carries an AtomicityOracle (the specification), initial
// object values, write semantics, and an invariant auditors can check
// after a run.
package workload

import (
	"context"
	"fmt"
	"time"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/trace"
	"relser/internal/txn"
)

// Workload bundles programs with their specification and semantics.
type Workload struct {
	Name     string
	Programs []*core.Transaction
	Oracle   sched.AtomicityOracle
	// Initial values loaded into the store before a run.
	Initial map[string]storage.Value
	// Semantics computes written values; nil means identity-based
	// defaults.
	Semantics txn.Semantics
	// Invariant validates a post-run snapshot (nil when the workload
	// has no data invariant).
	Invariant func(snapshot map[string]storage.Value) error
}

// Run executes the workload under the protocol with the given seed and
// multiprogramming level, returning the runtime result.
func (w *Workload) Run(protocol sched.Protocol, seed int64, mpl int) (*txn.Result, error) {
	res, _, err := w.RunWith(protocol, RunOptions{Seed: seed, MPL: mpl})
	return res, err
}

// RunOptions extends Run with a write-ahead log, a caller-supplied
// store, observability sinks, and the concurrent (goroutine) execution
// mode.
type RunOptions struct {
	Seed int64
	MPL  int
	// WAL is the durability sink: a *storage.ShardedWAL, or a decorator
	// around one.
	WAL        storage.WALSink
	Store      *storage.Store
	Concurrent bool
	// Shards stripes the concurrent driver's hot path (power of two;
	// zero means one shard). Ignored by the deterministic runner.
	Shards int
	// Tracer receives structured events from the runtime, the protocol
	// and the storage substrate.
	Tracer *trace.Tracer
	// Metrics receives run counters and latency histograms.
	Metrics *metrics.Registry
	// Obs attaches a live observability plane (internal/obs): its
	// flight recorder and span table become the run's tracer (Tracer,
	// when also set, is teed in downstream with sampling disabled so it
	// still sees the complete stream), its span-assembly hooks become
	// the run's stage hooks, and its registry backs the run when
	// Metrics is nil.
	Obs *obs.Plane
	// Hooks observes engine lifecycle stage transitions
	// (txn.Config.Hooks). Observers layered on top of the run — the
	// recording tap (internal/record), tests cancelling at precise
	// stages — install themselves here; when Obs is also set, the
	// plane's span hooks are chained in front.
	Hooks txn.Hooks
	// Faults arms deterministic fault injection across the run's store,
	// WAL and driver (see internal/fault).
	Faults *fault.Injector
	// Deadline bounds each instance's logical age before a driver abort;
	// 0 disables (see txn.Config.Deadline).
	Deadline int64
	// Watchdog bounds progress-free wall time in the concurrent driver;
	// 0 selects the default, negative disables (see txn.Config.Watchdog).
	Watchdog time.Duration
	// Timeout, when positive, bounds the run's wall time via a context
	// deadline layered onto the caller's context: an expired run unwinds
	// in-flight instances through the engine's Recover stage and fails
	// with context.DeadlineExceeded as the cause.
	Timeout time.Duration
}

// RunWith executes the workload with full options and returns the
// result together with the store it ran against.
func (w *Workload) RunWith(protocol sched.Protocol, opts RunOptions) (*txn.Result, *storage.Store, error) {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: RunWithContext is the context-aware form
	return w.RunWithContext(context.Background(), protocol, opts)
}

// RunWithContext is RunWith under a caller context: cancellation and
// deadlines propagate through both drivers' run loops (txn.Runner
// checks at tick boundaries; txn.ConcurrentRunner's workers check on
// every step and are flooded awake on cancellation).
func (w *Workload) RunWithContext(ctx context.Context, protocol sched.Protocol, opts RunOptions) (*txn.Result, *storage.Store, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	store := opts.Store
	if store == nil {
		store = storage.NewStore()
	}
	store.Load(w.Initial)
	cfg := txn.Config{
		Protocol:  protocol,
		Programs:  w.Programs,
		Oracle:    w.Oracle,
		Store:     store,
		Semantics: w.Semantics,
		MPL:       opts.MPL,
		Shards:    opts.Shards,
		Seed:      opts.Seed,
		WAL:       opts.WAL,
		Tracer:    opts.Tracer,
		Metrics:   opts.Metrics,
		Faults:    opts.Faults,
		Deadline:  opts.Deadline,
		Watchdog:  opts.Watchdog,
		Hooks:     opts.Hooks,
	}
	cfg = opts.Obs.Attach(cfg)
	var (
		res *txn.Result
		err error
	)
	if opts.Concurrent {
		var runner *txn.ConcurrentRunner
		runner, err = txn.NewConcurrent(cfg)
		if err == nil {
			res, err = runner.RunContext(ctx)
		}
	} else {
		var runner *txn.Runner
		runner, err = txn.New(cfg)
		if err == nil {
			res, err = runner.RunContext(ctx)
		}
	}
	if err != nil {
		return nil, store, err
	}
	if w.Invariant != nil {
		if err := w.Invariant(store.Snapshot()); err != nil {
			return res, store, fmt.Errorf("workload %s invariant violated: %v", w.Name, err)
		}
	}
	return res, store, nil
}

// kindOracle dispatches atomicity cuts on transaction kinds. A
// program's kind admits at most one nonempty answer, its split, which
// the workload computes once at generation; the rule only decides
// which observers see it. So Cuts answers without allocating, as
// sched.AtomicityOracle requires.
type kindOracle struct {
	progs map[core.TxnID]progKind
	// splits reports whether a program exposes its split to an
	// observer, given both programs' entries (the zero progKind for a
	// program the workload did not generate).
	splits func(a, b progKind) bool
}

// progKind is what kindOracle knows of one program: its kind, its
// group (the family or team it works in, where the rules need one)
// and its split.
type progKind struct {
	kind  string
	group int
	split []int
}

// Cuts implements sched.AtomicityOracle.
func (o *kindOracle) Cuts(a, b *core.Transaction) []int {
	pa := o.progs[a.ID]
	if o.splits(pa, o.progs[b.ID]) {
		return pa.split
	}
	return nil
}

// everyK returns boundaries after every k-th operation (k = 1: fully
// breakable).
func everyK(t *core.Transaction, k int) []int {
	if k <= 0 {
		return nil
	}
	var cuts []int
	for p := k; p < t.Len(); p += k {
		cuts = append(cuts, p)
	}
	return cuts
}
