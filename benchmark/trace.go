package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"relser/internal/core"
	"relser/internal/engine"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/trace"
)

// Span names. The five engine stages are the top-level spans of an
// instance; everything else nests inside the stage that called it.
const (
	spAdmit       = iota // engine.admit: Protocol.Begin entry -> Admit hook
	spDecide             // engine.decide: Issue hook -> Decide hook
	spApply              // engine.apply: Decide hook (on Grant) -> Apply hook
	spCommit             // engine.commit: granted CanCommit entry -> Commit hook
	spAbort              // engine.abort: Protocol.Abort entry -> Abort hook
	spBegin              // sched.begin
	spRequest            // sched.request
	spCanCommit          // sched.can_commit (top-level when it vetoes)
	spSchedCommit        // sched.commit
	spSchedAbort         // sched.abort
	spLowWater           // sched.low_water: SetLowWater / FlushRetirement
	spWALAppend          // storage.wal.append
	spWALSync            // storage.wal.append_sync: enqueue -> fsync ack
	spWALFlush           // storage.wal.sync: the end-of-run drain
	numSpans
)

var spanNames = [numSpans]string{
	"engine.admit", "engine.decide", "engine.apply", "engine.commit", "engine.abort",
	"sched.begin", "sched.request", "sched.can_commit", "sched.commit", "sched.abort",
	"sched.low_water", "storage.wal.append", "storage.wal.append_sync", "storage.wal.sync",
}

// span is one timed interval; Parent indexes the instance's own span
// list (-1 for a top-level span). Times are nanoseconds since the rep
// began.
type span struct {
	Name   uint8
	Parent int32
	Start  int64
	End    int64
}

// rawSpan is a span as written to benchmark/out/.
type rawSpan struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int32  `json:"parent"`
	Instance int64  `json:"instance"`
}

// rawSpanCap bounds the spans kept for the out/ file; the per-layer
// sums always cover every span.
const rawSpanCap = 100_000

// slot is one instance's timing state. Only the goroutine that the
// driver lets act for the instance touches it: its worker on the
// operation path, the lifecycle-lock holder on Begin/Commit/Abort.
type slot struct {
	inst     int64
	admitAt  int64 // Admit hook time; commit latency counts from here
	last     int64 // end of the previous stage span
	open     int32 // index of the open stage span, -1 if none
	decision sched.Decision
	grants   int32
	blocks   int32
	refusals int32
	wait     int64 // sum of (Issue hook - previous stage end)
	spans    []span
}

func (s *slot) openStage(name uint8, at int64) {
	s.open = int32(len(s.spans))
	s.spans = append(s.spans, span{Name: name, Parent: -1, Start: at})
}

func (s *slot) closeStage(at int64) {
	if s.open >= 0 {
		s.spans[s.open].End = at
		s.open = -1
	}
	s.last = at
}

func (s *slot) child(name uint8, start, end int64) {
	s.spans = append(s.spans, span{Name: name, Parent: s.open, Start: start, End: end})
}

// tracer times one rep from outside the program under test. Untraced
// reps use only its Admit and Commit hooks (commit latency); traced
// reps add the per-operation hooks and the decorators below.
//
// The slot table is grown and the totals are folded only from
// lifecycle calls (Begin, the Admit/Commit/Abort hooks), which both
// drivers serialize against every operation-path call (the
// sched.ShardSafe contract), so neither needs a lock.
type tracer struct {
	traced bool
	t0     time.Time
	pages  [][]slot
	free   [][]span
	cur    *slot // instance of the lifecycle call in progress

	latNs []float64 // commit latencies, one per committed instance

	sum      [numSpans]int64
	cnt      [numSpans]int64
	inner    [numSpans]int64 // per stage: time covered by its child spans
	top      int64           // sum of top-level spans
	wait     int64
	reqNs    []float64
	syncNs   []float64
	pauseMax int64
	grants   int64
	blocks   int64
	refusals int64
	commits  int64
	raw      []rawSpan

	ret       sched.Retirer
	peakLive  int
	peakExec  int
	heapPeak  uint64
	heapProbe []metrics.Sample

	// Device-side counters: the WAL committer goroutine writes them.
	fileBytes atomic.Int64
	fsyncs    atomic.Int64
	fsyncNs   atomic.Int64
}

const slotPage = 1024

func newTracer(traced bool, instances int) *tracer {
	t := &tracer{traced: traced, latNs: make([]float64, 0, instances)}
	for len(t.pages)*slotPage <= instances+instances/4 {
		t.pages = append(t.pages, make([]slot, slotPage))
	}
	if traced {
		t.heapProbe = []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
	}
	return t
}

// start marks the beginning of Run; span times count from here.
func (t *tracer) start() { t.t0 = time.Now() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// slotFor claims the slot of a newly begun instance. Lifecycle call.
func (t *tracer) slotFor(inst int64) *slot {
	for int(inst) >= len(t.pages)*slotPage {
		t.pages = append(t.pages, make([]slot, slotPage))
	}
	s := t.slot(inst)
	*s = slot{inst: inst, open: -1}
	if n := len(t.free); t.traced && n > 0 {
		s.spans, t.free = t.free[n-1], t.free[:n-1]
	}
	return s
}

func (t *tracer) slot(inst int64) *slot {
	return &t.pages[inst/slotPage][inst%slotPage]
}

// global records a top-level span that belongs to no instance.
func (t *tracer) global(name uint8, start, end int64) {
	d := end - start
	t.sum[name] += d
	t.cnt[name]++
	t.top += d
	if d > t.pauseMax && name == spLowWater {
		t.pauseMax = d
	}
	if len(t.raw) < rawSpanCap {
		t.raw = append(t.raw, rawSpan{Name: spanNames[name], Start: start, End: end, Parent: -1})
	}
}

// fold adds a finished instance's spans to the totals and recycles its
// buffer. Lifecycle call (Commit or Abort hook).
func (t *tracer) fold(s *slot) {
	for _, sp := range s.spans {
		d := sp.End - sp.Start
		t.sum[sp.Name] += d
		t.cnt[sp.Name]++
		if sp.Parent < 0 {
			t.top += d
		} else {
			t.inner[s.spans[sp.Parent].Name] += d
		}
		switch sp.Name {
		case spRequest:
			t.reqNs = append(t.reqNs, float64(d))
		case spWALSync:
			t.syncNs = append(t.syncNs, float64(d))
		case spSchedCommit, spLowWater:
			if d > t.pauseMax {
				t.pauseMax = d
			}
		}
		if len(t.raw) < rawSpanCap {
			t.raw = append(t.raw, rawSpan{Name: spanNames[sp.Name], Start: sp.Start, End: sp.End, Parent: sp.Parent, Instance: s.inst})
		}
	}
	t.wait += s.wait
	t.grants += int64(s.grants)
	t.blocks += int64(s.blocks)
	t.refusals += int64(s.refusals)
	t.free = append(t.free, s.spans[:0])
	s.spans = nil
}

// sample reads the protocol's graph size and the heap in use; called
// from the Commit hook every 64th commit so the probes stay cheap.
func (t *tracer) sample() {
	if t.ret != nil {
		st := t.ret.RetireStats()
		if v := st.LiveVertices + st.PendingRetire; v > t.peakLive {
			t.peakLive = v
		}
		if st.ExecEntries > t.peakExec {
			t.peakExec = st.ExecEntries
		}
	}
	metrics.Read(t.heapProbe)
	if v := t.heapProbe[0].Value.Uint64() + t.heapProbe[1].Value.Uint64(); v > t.heapPeak {
		t.heapPeak = v
	}
}

// hooks returns the engine stage callbacks. Bodies touch only the
// instance's own slot (no locks, no blocking, no engine calls).
func (t *tracer) hooks() engine.Hooks {
	if !t.traced {
		return engine.Hooks{
			Admit: func(st *engine.Instance) { t.slotFor(st.ID).admitAt = t.now() },
			Commit: func(st *engine.Instance) {
				t.latNs = append(t.latNs, float64(t.now()-t.slot(st.ID).admitAt))
			},
		}
	}
	return engine.Hooks{
		Admit: func(st *engine.Instance) {
			s, now := t.slot(st.ID), t.now()
			s.admitAt = now
			s.closeStage(now)
		},
		Issue: func(st *engine.Instance) {
			s, now := t.slot(st.ID), t.now()
			s.wait += now - s.last
			s.openStage(spDecide, now)
		},
		Decide: func(st *engine.Instance) {
			s, now := t.slot(st.ID), t.now()
			s.closeStage(now)
			switch s.decision {
			case sched.Grant:
				s.grants++
				s.openStage(spApply, now)
			case sched.Block:
				s.blocks++
			default:
				s.refusals++
			}
		},
		Apply: func(st *engine.Instance) { t.slot(st.ID).closeStage(t.now()) },
		Commit: func(st *engine.Instance) {
			s, now := t.slot(st.ID), t.now()
			t.latNs = append(t.latNs, float64(now-s.admitAt))
			s.closeStage(now)
			t.fold(s)
			if t.commits++; t.commits%64 == 0 {
				t.sample()
			}
		},
		Abort: func(st *engine.Instance) {
			s := t.slot(st.ID)
			s.closeStage(t.now())
			t.fold(s)
		},
	}
}

// timedProtocol is the sched.Protocol decorator. It forwards
// ConcurrentShardSafe and SetTracer dynamically, which gives the engine
// the same answer the wrapped protocol would; sched.Retirer changes
// the engine's code path by mere presence, so only timedRetirer (built
// when the wrapped protocol is a Retirer) has those methods.
type timedProtocol struct {
	inner sched.Protocol
	t     *tracer
}

// timedRetirer adds the sched.Retirer methods: the two that do epoch
// work are timed, the embedded interface forwards the rest.
type timedRetirer struct {
	timedProtocol
	sched.Retirer
}

// wrapProtocol decorates p, keeping its optional interfaces.
func wrapProtocol(p sched.Protocol, t *tracer) sched.Protocol {
	tp := timedProtocol{inner: p, t: t}
	if r, ok := p.(sched.Retirer); ok {
		t.ret = r
		return &timedRetirer{timedProtocol: tp, Retirer: r}
	}
	return &tp
}

func (p *timedProtocol) Name() string { return p.inner.Name() }

func (p *timedProtocol) ConcurrentShardSafe() bool { return sched.IsShardSafe(p.inner) }

func (p *timedProtocol) SetTracer(tr *trace.Tracer) { sched.Attach(p.inner, tr) }

func (p *timedProtocol) Begin(inst int64, prog *core.Transaction) {
	s, start := p.t.slotFor(inst), p.t.now()
	s.openStage(spAdmit, start)
	p.inner.Begin(inst, prog)
	s.child(spBegin, start, p.t.now())
	p.t.cur = s
}

func (p *timedProtocol) Request(req sched.OpRequest) sched.Decision {
	s, start := p.t.slot(req.Instance), p.t.now()
	dec := p.inner.Request(req)
	s.child(spRequest, start, p.t.now())
	s.decision = dec
	return dec
}

func (p *timedProtocol) CanCommit(inst int64) bool {
	s, start := p.t.slot(inst), p.t.now()
	ok := p.inner.CanCommit(inst)
	if ok {
		s.openStage(spCommit, start)
	}
	s.child(spCanCommit, start, p.t.now())
	p.t.cur = s
	return ok
}

func (p *timedProtocol) Commit(inst int64) {
	s, start := p.t.slot(inst), p.t.now()
	p.inner.Commit(inst)
	s.child(spSchedCommit, start, p.t.now())
}

func (p *timedProtocol) Abort(inst int64) {
	s, start := p.t.slot(inst), p.t.now()
	// An apply span is still open when the recoverability check refused
	// the granted operation; the abort ends it.
	s.closeStage(start)
	s.openStage(spAbort, start)
	p.inner.Abort(inst)
	s.child(spSchedAbort, start, p.t.now())
	p.t.cur = s
}

func (p *timedRetirer) SetLowWater(inst int64) {
	start := p.t.now()
	p.Retirer.SetLowWater(inst)
	p.lowWater(start, p.t.now())
}

func (p *timedRetirer) FlushRetirement() {
	start := p.t.now()
	p.Retirer.FlushRetirement()
	p.lowWater(start, p.t.now())
}

// lowWater files a retirement call under the lifecycle stage that made
// it, or as a span of its own after the last instance finished.
func (p *timedRetirer) lowWater(start, end int64) {
	if s := p.t.cur; s != nil && s.open >= 0 {
		s.child(spLowWater, start, end)
		return
	}
	p.t.global(spLowWater, start, end)
}

// timedSink is the storage.WALSink decorator; every record carries its
// instance, so appends nest under that instance's open stage.
type timedSink struct {
	*storage.ShardedWAL // forwards Err, SetTracer, SetInjector, SetMetrics
	t                   *tracer
}

func (w *timedSink) Append(rec storage.WALRecord) error {
	s, start := w.t.slot(rec.Instance), w.t.now()
	err := w.ShardedWAL.Append(rec)
	s.child(spWALAppend, start, w.t.now())
	return err
}

func (w *timedSink) AppendSync(rec storage.WALRecord) error {
	s, start := w.t.slot(rec.Instance), w.t.now()
	err := w.ShardedWAL.AppendSync(rec)
	s.child(spWALSync, start, w.t.now())
	return err
}

func (w *timedSink) Sync() error {
	start := w.t.now()
	err := w.ShardedWAL.Sync()
	w.t.global(spWALFlush, start, w.t.now())
	return err
}

// timedBackend is the storage.SegmentBackend decorator: it counts the
// bytes and fsyncs that reach the (simulated) device.
type timedBackend struct {
	storage.SegmentBackend
	t *tracer
}

func (b *timedBackend) Create(shard, index int) (storage.SegmentFile, error) {
	f, err := b.SegmentBackend.Create(shard, index)
	if err != nil {
		return nil, err
	}
	return &timedFile{SegmentFile: f, t: b.t}, nil
}

type timedFile struct {
	storage.SegmentFile
	t *tracer
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.SegmentFile.Write(p)
	f.t.fileBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.SegmentFile.Sync()
	f.t.fsyncNs.Add(int64(time.Since(start)))
	f.t.fsyncs.Add(1)
	return err
}
