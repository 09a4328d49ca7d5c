package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"time"

	"relser/internal/core"
	"relser/internal/obs"
	"relser/internal/sched"
	"relser/internal/storage"
	"relser/internal/txn"
	"relser/internal/workload"
)

// fsyncDelay is the simulated device: MemBackend sleeps this long on
// every segment Sync. storage.wal.fsync_ms_mean reports what the host's
// timers make of it.
const fsyncDelay = time.Millisecond

// rep is what one run of a workload yields.
type rep struct {
	input     int64   // which pinned program set
	slowdown  float64 // host speed around this rep: reference pass time / refNominal
	setupS    float64
	runS      float64
	programs  int
	ops       int
	committed int
	restarts  int
	latNs     []float64
	allocB    uint64
	retainedB int64
	digest    uint64
	retire    sched.RetireStats
	shardSafe bool
	failures  []string
	layer     map[string]float64 // traced reps only
	spans     []rawSpan
}

func (r *rep) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// memProbe brackets a measured region: bytes allocated inside it, and
// the heap still reachable after a forced collection at its end.
type memProbe struct{ before, after runtime.MemStats }

func (m *memProbe) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
}

// end reads the allocation counters; call retained afterwards, while
// the region's results are still referenced.
func (m *memProbe) end() { runtime.ReadMemStats(&m.after) }

func (m *memProbe) allocated() uint64 { return m.after.TotalAlloc - m.before.TotalAlloc }

func (m *memProbe) retained() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) - int64(m.before.HeapAlloc)
}

func newProtocol(s *spec, oracle sched.AtomicityOracle) sched.Protocol {
	if s.protocol == "s2pl" {
		return sched.NewS2PLSharded(driverShards)
	}
	return sched.NewRSGT(oracle)
}

// scheduleDigest fingerprints the committed execution order.
func scheduleDigest(res *txn.Result) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, ev := range res.Trace {
		binary.LittleEndian.PutUint64(b[0:], uint64(ev.Instance))
		binary.LittleEndian.PutUint64(b[8:], uint64(ev.Op.Txn))
		binary.LittleEndian.PutUint64(b[16:], uint64(ev.Op.Seq))
		h.Write(b[:])
	}
	return h.Sum64()
}

// runEngine performs one rep of an engine workload: set-up (generate
// program set input at n programs, build protocol, store, log and
// plane), then Run under the driver seed, then the output checks. verify additionally runs the cubic
// Theorem 1 oracle over the result and is only ever set at gate size.
func runEngine(s *spec, input, seed int64, n int, traced, verify bool) *rep {
	r := &rep{input: input}
	runtime.GC() // every set-up starts from a collected heap
	setupStart := time.Now()
	w, err := s.gen(input, n)
	if err != nil {
		r.failf("generate: %v", err)
		return r
	}
	generateS := time.Since(setupStart).Seconds()
	r.programs = len(w.Programs)
	for _, p := range w.Programs {
		r.ops += p.Len()
	}
	t := newTracer(traced, r.programs)
	bare := newProtocol(s, w.Oracle)
	proto := bare
	if traced {
		proto = wrapProtocol(bare, t)
	}
	r.shardSafe = sched.IsShardSafe(proto)
	store := storage.NewStore()
	opts := workload.RunOptions{
		Seed: seed, MPL: s.clients(), Shards: driverShards, Concurrent: s.concurrent,
		Store: store, Hooks: t.hooks(), Timeout: 2 * time.Minute,
	}
	var (
		mem *storage.MemBackend
		wal *storage.ShardedWAL
	)
	if s.wal {
		mem = storage.NewMemBackend()
		mem.SyncDelay = fsyncDelay
		var backend storage.SegmentBackend = mem
		if traced {
			backend = &timedBackend{SegmentBackend: mem, t: t}
		}
		if wal, err = storage.NewShardedWAL(backend, storage.SegmentedOptions{Shards: 1}); err != nil {
			r.failf("open WAL: %v", err)
			return r
		}
		defer wal.Close()
		opts.WAL = wal
		if traced {
			opts.WAL = &timedSink{ShardedWAL: wal, t: t}
		}
	}
	var plane *obs.Plane
	if s.plane {
		plane = obs.New(obs.Options{})
		defer plane.Close()
		opts.Obs = plane
	}
	r.setupS = time.Since(setupStart).Seconds()

	var mp memProbe
	mp.begin()
	t.start()
	res, _, err := w.RunWith(proto, opts)
	r.runS = time.Since(t.t0).Seconds()
	mp.end()
	if err != nil {
		r.failf("run: %v", err) // includes a violated workload invariant
		return r
	}
	r.allocB = mp.allocated()
	r.retainedB = mp.retained()
	runtime.KeepAlive(bare)

	r.committed, r.restarts, r.retire = res.Committed, res.Restarts, res.Retire
	r.latNs = t.latNs
	if res.Committed != r.programs {
		r.failf("committed %d of %d programs", res.Committed, r.programs)
	}
	if len(t.latNs) != res.Committed {
		r.failf("%d latency samples for %d commits", len(t.latNs), res.Committed)
	}
	if s.serial() {
		r.digest = scheduleDigest(res)
	}
	if verify {
		if err := res.Verify(); err != nil {
			r.failf("Theorem 1 oracle: %v", err)
		}
	}
	if traced {
		r.layer = t.layerMetrics(s, res, r.runS)
		r.layer["workload.generate_s"] = generateS
		r.layer["workload.programs"] = float64(r.programs)
		r.layer["workload.ops"] = float64(r.ops)
		reads, writes := store.Stats()
		r.layer["storage.store.reads"] = float64(reads)
		r.layer["storage.store.writes"] = float64(writes)
		if plane != nil {
			r.layer["obs.events_recorded"] = float64(plane.Recorder().Recorded())
			r.layer["obs.spans_completed"] = float64(plane.Registry().Counter("obs.spans_completed").Value())
		}
		r.layer["runtime.gc_cycles"] = float64(mp.after.NumGC - mp.before.NumGC)
		r.layer["runtime.gc_pause_ms_total"] = float64(mp.after.PauseTotalNs-mp.before.PauseTotalNs) / 1e6
		r.layer["runtime.heap_inuse_peak_mb"] = max(r.layer["runtime.heap_inuse_peak_mb"], float64(mp.after.HeapInuse)/(1<<20))
		maps.Copy(r.layer, storeMicro(w))
		if s.protocol == "rsgt" {
			maps.Copy(r.layer, graphMicro(input))
		}
		r.spans = t.raw
	}
	if s.wal {
		checkDurability(r, wal, mem, w, store, res, traced)
	}
	return r
}

// checkDurability closes the log, recovers from the bytes a crash would
// leave, and requires the recovered store to equal the run's store and
// the recovered commit count to equal the run's.
func checkDurability(r *rep, wal *storage.ShardedWAL, mem *storage.MemBackend, w *workload.Workload, store *storage.Store, res *txn.Result, traced bool) {
	if err := wal.Close(); err != nil {
		r.failf("close WAL: %v", err)
		return
	}
	set, err := mem.SegmentSet()
	if err != nil {
		r.failf("crash image: %v", err)
		return
	}
	start := time.Now()
	recovered, report, err := storage.RecoverSegmented(set, w.Initial)
	recoveryS := time.Since(start).Seconds()
	if err != nil {
		r.failf("recover: %v", err)
		return
	}
	if !report.Clean() || report.Committed != res.Committed {
		r.failf("recovered %d commits (clean=%v), run committed %d", report.Committed, report.Clean(), res.Committed)
	}
	if !maps.Equal(recovered.Snapshot(), store.Snapshot()) {
		r.failf("recovered store differs from the run's store")
	}
	if !traced {
		return
	}
	scanS, err := timeSegmentScan(set)
	if err != nil {
		r.failf("scan: %v", err)
	}
	st := wal.Stats()
	r.layer["storage.recover.recovery_s"] = recoveryS
	r.layer["storage.recover.scan_s"] = scanS
	r.layer["storage.recover.records"] = float64(report.Records)
	r.layer["storage.recover.committed"] = float64(report.Committed)
	r.layer["storage.wal.rotations"] = float64(st.Rotations)
	r.layer["storage.wal.records_per_fsync"] = ratio(float64(st.Appends), float64(st.Fsyncs))
}

// runCertify performs one rep of the offline workload. Set-up runs the
// programs through serial RSGT to obtain a committed schedule; the
// timed part is the Theorem 1 test over it. A "commit" here is a
// transaction of the schedule being certified, and every one of them
// waits for the whole test, so the test time is their latency.
func runCertify(s *spec, input, seed int64, n int, traced bool) *rep {
	r := &rep{input: input}
	runtime.GC() // every set-up starts from a collected heap
	setupStart := time.Now()
	w, err := s.gen(input, n)
	if err != nil {
		r.failf("generate: %v", err)
		return r
	}
	generateS := time.Since(setupStart).Seconds()
	res, _, err := w.RunWith(sched.NewRSGT(w.Oracle), workload.RunOptions{Seed: seed, MPL: s.clients(), Timeout: 2 * time.Minute})
	if err != nil {
		r.failf("produce schedule: %v", err)
		return r
	}
	r.programs, r.ops = res.Committed, len(res.Trace)
	r.setupS = time.Since(setupStart).Seconds()

	var mp memProbe
	mp.begin()
	var mark [5]time.Time
	mark[0] = time.Now()
	sch, sp, err := res.CommittedSchedule()
	if err != nil {
		r.failf("committed schedule: %v", err)
		return r
	}
	mark[1] = time.Now()
	dep := core.ComputeDepends(sch)
	mark[2] = time.Now()
	rsg := core.BuildRSGUnder(sch, sp, dep)
	mark[3] = time.Now()
	acyclic := rsg.Acyclic()
	mark[4] = time.Now()
	r.runS = mark[4].Sub(mark[0]).Seconds()
	mp.end()
	r.allocB = mp.allocated()
	r.retainedB = mp.retained()
	runtime.KeepAlive(rsg)

	if !acyclic {
		r.failf("online RSGT committed a schedule the Theorem 1 test rejects: cycle through %v", rsg.Cycle())
		return r
	}
	r.committed = r.programs
	for i := 0; i < r.programs; i++ {
		r.latNs = append(r.latNs, r.runS*1e9)
	}
	if traced {
		phase := func(i int) float64 { return mark[i+1].Sub(mark[i]).Seconds() }
		pairs := 0
		for pos := 0; pos < sch.Len(); pos++ {
			pairs += dep.Predecessors(pos).Count()
		}
		r.layer = map[string]float64{
			"workload.generate_s":    generateS,
			"workload.programs":      float64(r.programs),
			"workload.ops":           float64(r.ops),
			"core.certify_ops_per_s": ratio(float64(r.ops), r.runS),
			"core.schedule_build_s":  phase(0),
			"core.depends_s":         phase(1),
			"core.rsg_build_s":       phase(2),
			"core.rsg_acyclic_s":     phase(3),
			"core.rsg_arcs":          float64(rsg.NumArcs()),
			"core.depends_pairs":     float64(pairs),
			"trace.coverage":         1, // the four phases tile the test
		}
		for i := 0; i < 4; i++ {
			r.spans = append(r.spans, rawSpan{
				Name:   [...]string{"core.schedule_build", "core.depends", "core.rsg_build", "core.rsg_acyclic"}[i],
				Start:  int64(mark[i].Sub(mark[0])),
				End:    int64(mark[i+1].Sub(mark[0])),
				Parent: -1,
			})
		}
	}
	return r
}

func runRep(s *spec, input, seed int64, n int, traced, verify bool) *rep {
	if s.offline {
		return runCertify(s, input, seed, n, traced)
	}
	return runEngine(s, input, seed, n, traced, verify)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
