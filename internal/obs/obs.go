// Package obs is the live observability plane: an always-on,
// low-overhead layer over the engine's stage hooks and trace stream
// that keeps a bounded in-memory view of a running system — a
// lock-free flight recorder over trace events, per-transaction spans
// carrying RSG conflict evidence, and a degradation health roll-up —
// and serves it over an embeddable ops HTTP endpoint (Prometheus
// /metrics, /healthz, flight dumps, SSE live tail, pprof).
//
// The plane is built not to perturb what it observes. Hot event kinds
// (per-transaction lifecycle, grants, store latch crossings, WAL
// appends) are sampled *before*
// event construction via the tracer's kind gate, the recorder ring is
// lock-free, span and health bookkeeping only runs for rare lifecycle
// kinds, and with no plane attached every instrumentation site remains
// the nil-tracer no-op it was. Attaching a full-trace downstream sink
// (rssim -trace) disables sampling so post-hoc consumers — including
// trace.VerifyCycles replay — still see the complete stream.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"relser/internal/engine"
	"relser/internal/metrics"
	"relser/internal/trace"
)

// SampleEvery is the sampling divisor for hot event kinds: one in
// every SampleEvery begin/commit/grant/store/WAL events is recorded. A
// power of two, so the gate divides with a mask.
const SampleEvery = 64

// dumpLivelockLevel is the livelock escalation level that triggers an
// automatic flight dump.
const dumpLivelockLevel = 2

// maxAutoDumps bounds the number of automatic dump files per plane.
const maxAutoDumps = 8

// Options configures a Plane. The zero value is usable: a fresh
// registry, the default ring, sampling, no file dumps.
type Options struct {
	// Registry receives the plane's instruments and is the registry
	// /metrics exposes. Share it with the run (workload wiring does this
	// automatically) so one scrape covers engine and plane. Nil creates
	// a fresh registry.
	Registry *metrics.Registry
	// RingCap is the flight-recorder capacity (DefaultRingCap if <= 0).
	RingCap int
	// Full disables sampling entirely; implied when a downstream
	// full-trace sink is attached via Tracer. Sampled, hot kinds pass
	// one in SampleEvery; rare kinds — degradation, cycle evidence,
	// per-instance aborts — are never sampled.
	Full bool
	// DumpDir, when set, receives automatic flight dumps (JSONL) on
	// watchdog wedge, run cancellation, livelock escalation and
	// abort-storm shedding. Empty disables file dumps; the triggers are
	// still counted and the ring stays inspectable over HTTP.
	DumpDir string
}

// Plane bundles the flight recorder, span table, health state and SSE
// broadcaster behind one wiring surface. Construct once per process
// (or per run), wire with Tracer and Hooks, and mount Handler.
type Plane struct {
	opts   Options
	reg    *metrics.Registry
	rec    *Recorder
	spans  *spanTable
	health *healthState
	sse    *broadcaster
	epoch  time.Time

	// Sampling countdowns, one per gated kind (plain atomics so the
	// gate never locks).
	scBegin      atomic.Uint64
	scCommit     atomic.Uint64
	scGrant      atomic.Uint64
	scBlock      atomic.Uint64
	scLockWait   atomic.Uint64
	scStoreRead  atomic.Uint64
	scStoreWrite atomic.Uint64
	scWAL        atomic.Uint64

	dumpC    *metrics.Counter
	dumpMu   sync.Mutex
	dumped   map[string]bool
	dumps    []string
	dumpWG   sync.WaitGroup
	dumpSeq  int
	dumpErrs []error

	// Run annotations (AnnotateFaults / SetRecording): stamped into
	// flight-dump headers and /healthz so dumps and live state are
	// self-describing — a dump alone identifies the fault schedule that
	// produced it and the .rsrec artifact that can replay it.
	annotMu   sync.Mutex
	faultSpec string
	faultSeed int64
	faultFP   func() string
	recPath   string
	recStages func() int64
}

// New constructs a plane.
func New(opts Options) *Plane {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	epoch := time.Now()
	return &Plane{
		opts:   opts,
		reg:    reg,
		rec:    NewRecorder(opts.RingCap, reg),
		spans:  newSpanTable(epoch, reg),
		health: &healthState{},
		sse:    newBroadcaster(reg),
		epoch:  epoch,
		dumpC:  reg.Counter("obs.dump_triggers"),
		dumped: make(map[string]bool),
	}
}

// Registry returns the plane's metrics registry (share it with the run
// so engine counters and plane counters land in one scrape).
func (p *Plane) Registry() *metrics.Registry { return p.reg }

// Recorder returns the flight recorder.
func (p *Plane) Recorder() *Recorder { return p.rec }

// AnnotateFaults stamps the run's fault spec and seed into the plane,
// with an optional live fingerprint source (fault.Injector.Fingerprint)
// sampled at dump time. Flight dumps gain a header line carrying all
// three, and /healthz reports the spec and seed — so a dump or scrape
// is self-describing: the schedule that produced it can be re-armed
// from the header alone.
func (p *Plane) AnnotateFaults(spec string, seed int64, fingerprint func() string) {
	p.annotMu.Lock()
	p.faultSpec, p.faultSeed, p.faultFP = spec, seed, fingerprint
	p.annotMu.Unlock()
}

// SetRecording announces an active .rsrec recording (internal/record):
// the path lands in flight-dump headers and /healthz, with stages
// sampled live for the frame count. Pass an empty path to clear.
func (p *Plane) SetRecording(path string, stages func() int64) {
	p.annotMu.Lock()
	p.recPath, p.recStages = path, stages
	p.annotMu.Unlock()
}

// dumpHeader is the first line of a flight dump: not a trace event but
// a run identification block (distinguished by "header":true).
type dumpHeader struct {
	Header           bool   `json:"header"`
	FaultSpec        string `json:"fault_spec,omitempty"`
	FaultSeed        int64  `json:"fault_seed,omitempty"`
	FaultFingerprint string `json:"fault_fingerprint,omitempty"`
	Recording        string `json:"recording,omitempty"`
}

// header snapshots the current annotations; ok is false when nothing
// has been annotated (dumps then omit the header line, keeping the
// pre-annotation format).
func (p *Plane) header() (dumpHeader, bool) {
	p.annotMu.Lock()
	defer p.annotMu.Unlock()
	h := dumpHeader{Header: true, FaultSpec: p.faultSpec, Recording: p.recPath}
	if p.faultSpec != "" {
		h.FaultSeed = p.faultSeed
		if p.faultFP != nil {
			h.FaultFingerprint = p.faultFP()
		}
	}
	return h, p.faultSpec != "" || p.recPath != ""
}

// Flight returns the flight recorder's retained events in order.
func (p *Plane) Flight() []trace.Event { return p.rec.Snapshot() }

// Spans returns the retained completed spans, oldest first.
func (p *Plane) Spans() []Span { return p.spans.Completed() }

// Health returns the current degradation roll-up.
func (p *Plane) Health() Health {
	h := p.health.snapshot(p.reg)
	p.annotMu.Lock()
	h.FaultSpec = p.faultSpec
	if p.faultSpec != "" {
		h.FaultSeed = p.faultSeed
	}
	if p.recPath != "" {
		h.Recording = &RecordingStatus{Active: true, Path: p.recPath}
		if p.recStages != nil {
			h.Recording.Stages = p.recStages()
		}
	}
	p.annotMu.Unlock()
	return h
}

// Tracer returns a tracer that feeds the plane. When downstream is an
// enabled tracer (a CLI's -trace buffer, a JSONL writer), its sink is
// teed in after the plane and sampling is disabled so the downstream
// consumer sees the complete stream (trace.VerifyCycles replay requires
// every grant). With no downstream, hot kinds are sampled one in
// SampleEvery before event construction.
func (p *Plane) Tracer(downstream *trace.Tracer) *trace.Tracer {
	full := p.opts.Full || downstream.Enabled()
	t := trace.New(&planeSink{p: p, downstream: downstream.Sink()})
	if !full {
		t.SetKindGate(p.admit)
	}
	return t
}

// Hooks chains the plane's span assembly in front of next on the
// lifecycle stages (Admit, Commit, Abort), preserving any hooks the
// caller installed. The per-operation stages are left exactly as the
// caller set them — for the plane alone they stay nil, so Issue,
// Decide and Apply keep costing the engine a nil check per transition.
func (p *Plane) Hooks(next engine.Hooks) engine.Hooks {
	h := next
	h.Admit = chainHook(p.spans.admit, next.Admit)
	h.Commit = chainHook(func(st *engine.Instance) { p.spans.finish(st, StatusCommitted) }, next.Commit)
	h.Abort = chainHook(func(st *engine.Instance) { p.spans.finish(st, StatusAborted) }, next.Abort)
	return h
}

// Attach wires the plane into a driver config: the plane becomes the
// tracer (teeing any tracer already set downstream), its span hooks go
// in front of the stage hooks, and its registry backs the run when
// none is set. A nil plane attaches nothing.
func (p *Plane) Attach(cfg engine.Config) engine.Config {
	if p == nil {
		return cfg
	}
	cfg.Tracer = p.Tracer(cfg.Tracer)
	cfg.Hooks = p.Hooks(cfg.Hooks)
	if cfg.Metrics == nil {
		cfg.Metrics = p.Registry()
	}
	return cfg
}

// chainHook runs first, then the caller's hook when one is installed.
func chainHook(first, then func(*engine.Instance)) func(*engine.Instance) {
	if then == nil {
		return first
	}
	return func(st *engine.Instance) {
		first(st)
		then(st)
	}
}

// Close waits for in-flight automatic dumps to finish writing.
func (p *Plane) Close() {
	p.dumpWG.Wait()
}

// Dumps returns the automatic dump files written so far and any write
// errors encountered.
func (p *Plane) Dumps() ([]string, []error) {
	p.dumpMu.Lock()
	defer p.dumpMu.Unlock()
	return append([]string(nil), p.dumps...), append([]error(nil), p.dumpErrs...)
}

// admit is the tracer kind gate: hot kinds pass one in SampleEvery
// (the first of each kind always passes), everything else always. Runs
// on the instrumented hot path, so it is a string switch plus one
// atomic add and a mask — no locks, no allocation, no division.
func (p *Plane) admit(k trace.Kind) bool {
	const m = SampleEvery - 1
	switch k {
	case trace.KindBegin:
		return p.scBegin.Add(1)&m == 1
	case trace.KindCommit:
		return p.scCommit.Add(1)&m == 1
	case trace.KindGrant:
		return p.scGrant.Add(1)&m == 1
	case trace.KindBlock:
		return p.scBlock.Add(1)&m == 1
	case trace.KindLockWait:
		return p.scLockWait.Add(1)&m == 1
	case trace.KindStoreRead:
		return p.scStoreRead.Add(1)&m == 1
	case trace.KindStoreWrite:
		return p.scStoreWrite.Add(1)&m == 1
	case trace.KindWALAppend:
		return p.scWAL.Add(1)&m == 1
	}
	return true
}

// planeSink fans one event to the plane's consumers: the ring first,
// so a flight dump the event triggers contains it, then span enrichment
// and health for the rare kinds that need them, the SSE broadcast and
// the optional downstream tee. Safe for concurrent use.
type planeSink struct {
	p          *Plane
	downstream trace.Sink
}

// Emit implements trace.Sink.
func (s *planeSink) Emit(ev trace.Event) {
	p := s.p
	p.rec.Emit(ev)
	switch ev.Kind {
	case trace.KindTxnAbort, trace.KindCycleReject, trace.KindConflictCycle, trace.KindDeadlock:
		p.spans.observe(ev)
	case trace.KindShed, trace.KindWedge, trace.KindCancel:
		p.health.observe(ev)
		p.maybeDump(ev)
	case trace.KindFault:
		if isLivelockEscalation(ev) {
			p.health.observe(ev)
			p.maybeDump(ev)
		}
	}
	p.sse.broadcast(ev)
	if s.downstream != nil {
		s.downstream.Emit(ev)
	}
}

// maybeDump fires the automatic flight dump when a degradation event
// crosses a trigger threshold. Dumps are deduplicated per trigger kind
// and written off the emitting goroutine, so a wedge dump never runs
// under the driver locks the wedge itself is about.
func (p *Plane) maybeDump(ev trace.Event) {
	var trigger string
	switch ev.Kind {
	case trace.KindWedge:
		trigger = "wedge"
	case trace.KindCancel:
		trigger = "cancel"
	case trace.KindShed:
		// Only a storm — the controller holding admission at or below
		// half the configured level — triggers a dump; routine recovery
		// steps do not.
		var eff, mpl int
		if _, err := fmt.Sscanf(ev.Reason, "effective-mpl=%d/%d", &eff, &mpl); err != nil || mpl == 0 || eff > mpl/2 {
			return
		}
		trigger = "abort-storm"
	case trace.KindFault:
		var level int
		if _, err := fmt.Sscanf(ev.Reason, "livelock-escalation level=%d", &level); err != nil {
			return
		}
		if level < dumpLivelockLevel {
			return
		}
		trigger = "livelock"
	default:
		return
	}
	p.dumpMu.Lock()
	if p.dumped[trigger] || p.dumpSeq >= maxAutoDumps {
		p.dumpMu.Unlock()
		return
	}
	p.dumped[trigger] = true
	p.dumpSeq++
	seq := p.dumpSeq
	p.dumpMu.Unlock()
	p.dumpC.Inc()
	if p.opts.DumpDir == "" {
		return
	}
	p.dumpWG.Add(1)
	go func() {
		defer p.dumpWG.Done()
		path := filepath.Join(p.opts.DumpDir, fmt.Sprintf("flight-%02d-%s.jsonl", seq, trigger))
		hdr, hasHdr := p.header()
		err := writeDump(path, hdr, hasHdr, p.rec.Snapshot())
		p.dumpMu.Lock()
		if err != nil {
			p.dumpErrs = append(p.dumpErrs, fmt.Errorf("obs: dump %s: %w", path, err))
		} else {
			p.dumps = append(p.dumps, path)
		}
		p.dumpMu.Unlock()
	}()
}

func writeDump(path string, hdr dumpHeader, hasHdr bool, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if hasHdr {
		line, merr := json.Marshal(hdr)
		if merr == nil {
			_, err = f.Write(append(line, '\n'))
		} else {
			err = merr
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
