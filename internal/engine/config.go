package engine

import (
	"errors"
	"fmt"
	"time"

	"relser/internal/core"
	"relser/internal/fault"
	"relser/internal/metrics"
	"relser/internal/sched"
	"relser/internal/shard"
	"relser/internal/storage"
	"relser/internal/trace"
)

// Semantics computes the value a write operation stores, given the
// values the transaction has read so far (keyed by operation sequence).
// Workloads use it to give programs real data semantics (transfers,
// audits); the default writes a value derived from the transaction and
// operation identity.
type Semantics interface {
	WriteValue(prog *core.Transaction, seq int, reads map[int]storage.Value) storage.Value
}

// DefaultSemantics writes txnID*1000 + seq; good enough when only the
// interleaving matters.
type DefaultSemantics struct{}

// WriteValue implements Semantics.
func (DefaultSemantics) WriteValue(prog *core.Transaction, seq int, _ map[int]storage.Value) storage.Value {
	return storage.Value(int64(prog.ID)*1000 + int64(seq))
}

// Config describes one run of the engine pipeline, whichever driver
// executes it.
type Config struct {
	Protocol sched.Protocol
	// Programs are executed to commit exactly once each; IDs must be
	// distinct.
	Programs []*core.Transaction
	// Oracle supplies relative atomicity specifications, both to
	// verification and (for protocols that take one) to scheduling. It
	// defaults to absolute atomicity.
	Oracle sched.AtomicityOracle
	// Store defaults to a fresh empty store.
	Store *storage.Store
	// Semantics defaults to DefaultSemantics.
	Semantics Semantics
	// MPL bounds concurrently active instances (default 8).
	MPL int
	// Shards is the key-space partition width for the concurrent
	// driver: per-shard wait queues and dirty tracking, with shard-safe
	// protocols admitted concurrently under per-shard locks. Normalized
	// to a power of two (default 1 — the classical single-lock driver).
	// The deterministic Runner is single-threaded; it partitions dirty
	// tracking the same way but needs no shard locks.
	Shards int
	// Seed drives the deterministic scheduler interleaving.
	Seed int64
	// MaxRestarts bounds restarts per program before the run fails
	// (default 1000).
	MaxRestarts int
	// WAL, when set, receives begin/write/commit/abort records; a store
	// recovered from it (storage.RecoverSegmented) reproduces exactly
	// the committed effects. Commit records go through AppendAck: the
	// commit stage publishes the record under the lifecycle lock and
	// waits for the lane's group commit outside it, before the instance
	// counts as committed. WAL errors fail the run.
	WAL storage.WALSink
	// Tracer, when set, receives structured events for every scheduling
	// decision and instance lifecycle transition; it is also attached to
	// the protocol, store and WAL so their internal decisions land in
	// the same stream.
	Tracer *trace.Tracer
	// Metrics, when set, receives run counters, the active-instance
	// gauge and latency histograms under the "txn." prefix.
	Metrics *metrics.Registry
	// Faults arms deterministic fault injection: the injector is
	// attached to the store and WAL and consulted by the Check stage
	// (txn.abort, sched.grant.delay); the concurrent driver additionally
	// honors shard.stall and shard.wedge. Nil disables injection
	// entirely.
	Faults *fault.Injector
	// Deadline bounds each instance's age in logical time units (ticks
	// for Runner, executed operations for ConcurrentRunner) measured
	// from admission; an instance exceeding it on the operation path is
	// aborted with reason "deadline" and restarted. 0 disables. For
	// wall-clock bounds on the whole run, cancel the run context
	// instead (relser.RunOptions.Timeout).
	Deadline int64
	// Watchdog bounds progress-free wall time in the concurrent driver:
	// if no operation executes, commits, aborts or restarts for this
	// long, the run context is canceled with a *WedgeError cause
	// instead of hanging. 0 selects the 10s default; negative disables.
	// The deterministic Runner is single-threaded and ignores it.
	Watchdog time.Duration
	// Hooks observes lifecycle stage transitions (tests use it to
	// cancel runs at precise stages). Nil is free.
	Hooks Hooks
}

// normalize validates the configuration and fills defaults, attaching
// tracer and injector to the store and WAL. Both drivers share these
// rules.
func (cfg *Config) normalize() error {
	if cfg.Protocol == nil {
		return errors.New("txn: Config.Protocol is required")
	}
	if len(cfg.Programs) == 0 {
		return errors.New("txn: no programs to run")
	}
	seen := make(map[core.TxnID]bool, len(cfg.Programs))
	for _, p := range cfg.Programs {
		if p == nil || p.Len() == 0 {
			return errors.New("txn: nil or empty program")
		}
		if seen[p.ID] {
			return fmt.Errorf("txn: duplicate program ID %d", p.ID)
		}
		seen[p.ID] = true
	}
	if cfg.Oracle == nil {
		cfg.Oracle = sched.AbsoluteOracle{}
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewStore()
	}
	if cfg.Semantics == nil {
		cfg.Semantics = DefaultSemantics{}
	}
	if cfg.MPL <= 0 {
		cfg.MPL = 8
	}
	cfg.Shards = shard.Normalize(cfg.Shards)
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 1000
	}
	// A typed-nil *storage.ShardedWAL in the WALSink interface would
	// pass every != nil check below and panic on first use; flatten it
	// to a plain nil.
	if w, ok := cfg.WAL.(*storage.ShardedWAL); ok && w == nil {
		cfg.WAL = nil
	}
	if cfg.Tracer != nil {
		sched.Attach(cfg.Protocol, cfg.Tracer)
		cfg.Store.SetTracer(cfg.Tracer)
		if cfg.WAL != nil {
			cfg.WAL.SetTracer(cfg.Tracer)
		}
	}
	if cfg.Faults != nil {
		cfg.Store.SetInjector(cfg.Faults)
		if cfg.WAL != nil {
			cfg.WAL.SetInjector(cfg.Faults)
		}
	}
	if cfg.Metrics != nil && cfg.WAL != nil {
		if m, ok := cfg.WAL.(interface{ SetMetrics(*metrics.Registry) }); ok {
			m.SetMetrics(cfg.Metrics)
		}
	}
	return nil
}
