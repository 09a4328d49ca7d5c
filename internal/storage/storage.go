// Package storage provides the in-memory object store the transaction
// runtime executes against: named objects holding integer values, with
// per-object version counters, transaction-private undo logs for abort,
// and a committed-history log for invariant auditing.
//
// The paper's model (§2) is a set of objects accessed through atomic
// read and write operations; this store realizes exactly that model.
// It is safe for concurrent use: individual reads and writes are
// atomic, guarded by per-stripe latches (objects are partitioned over
// a fixed set of stripes by the shared shard router), so accesses to
// different objects almost never contend. Ordering between operations
// of different transactions is the concurrency-control protocol's job,
// not the store's.
package storage

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"relser/internal/fault"
	"relser/internal/shard"
	"relser/internal/trace"
)

// Value is the content of an object.
type Value int64

// Versioned pairs a value with the monotonically increasing version of
// its object (bumped on every write).
type Versioned struct {
	Value   Value
	Version uint64
}

// storeStripes is the fixed internal latch striping. It is independent
// of the scheduler's shard count: same-object accesses always land on
// the same stripe regardless of either configuration.
const storeStripes = 16

// Store is an in-memory object store.
type Store struct {
	stripes [storeStripes]storeStripe
	router  shard.Router
	writes  atomic.Uint64 // total write count (all objects); also the global write sequence
	reads   atomic.Uint64
	tr      atomic.Pointer[trace.Tracer]
	inj     atomic.Pointer[fault.Injector]
}

type storeStripe struct {
	mu      sync.Mutex
	objects map[string]*Versioned
}

// SetTracer installs a structured-event sink: subsequent reads and
// writes emit store-read / store-write events under the object's
// stripe latch. Pass nil to disable.
func (st *Store) SetTracer(tr *trace.Tracer) {
	st.tr.Store(tr)
}

// tracer returns the installed tracer (nil-safe: a nil *Tracer reports
// Enabled() == false).
func (st *Store) tracer() *trace.Tracer { return st.tr.Load() }

// SetInjector arms the store's latency fault points (store.read.delay,
// store.write.delay): a firing stalls the access under its stripe
// latch, modeling a device hiccup that blocks same-stripe neighbors.
// Pass nil to disarm.
func (st *Store) SetInjector(in *fault.Injector) {
	st.inj.Store(in)
}

// stall sleeps when the latency fault point fires, cut short if ctx is
// canceled — a canceled run stops paying for injected device hiccups.
// Called under the stripe latch.
func (st *Store) stall(ctx context.Context, p fault.Point) {
	if in := st.inj.Load(); in.Fire(p) {
		fault.SleepCtx(ctx, in.Latency(p))
	}
}

// NewStore returns an empty store.
func NewStore() *Store {
	st := &Store{router: shard.NewRouter(storeStripes)}
	for i := range st.stripes {
		st.stripes[i].objects = make(map[string]*Versioned)
	}
	return st
}

func (st *Store) stripe(name string) *storeStripe {
	return &st.stripes[st.router.Shard(name)]
}

// Load bulk-initializes objects (overwriting existing ones); intended
// for workload setup.
func (st *Store) Load(values map[string]Value) {
	for name, v := range values {
		sp := st.stripe(name)
		sp.mu.Lock()
		sp.objects[name] = &Versioned{Value: v}
		sp.mu.Unlock()
	}
}

// Read returns the current value and version of the object. Reading a
// missing object implicitly creates it with the zero value, matching
// the abstract model where every object always exists.
func (st *Store) Read(name string) Versioned {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: ReadCtx is the context-aware form
	return st.ReadCtx(context.Background(), name)
}

// ReadCtx is Read under a run context: an injected read stall under
// the stripe latch is cut short when ctx is canceled. The read itself
// always completes — cancellation bounds fault latency, it does not
// make reads fail.
func (st *Store) ReadCtx(ctx context.Context, name string) Versioned {
	st.reads.Add(1)
	sp := st.stripe(name)
	sp.mu.Lock()
	st.stall(ctx, fault.StoreReadDelay)
	v := *sp.object(name)
	if tr := st.tracer(); tr.Wants(trace.KindStoreRead) {
		tr.Emit(trace.Event{Kind: trace.KindStoreRead, Object: name, Value: int64(v.Value), Version: v.Version})
	}
	sp.mu.Unlock()
	return v
}

// Write replaces the object's value, bumping its version, and returns
// the previous state (which undo logs capture).
func (st *Store) Write(name string, v Value) Versioned {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: writeSeq is the context-aware form
	prev, _ := st.writeSeq(context.Background(), name, v)
	return prev
}

// writeSeq is Write plus the global write sequence number, which undo
// logs use to order cross-transaction rollback. The sequence is drawn
// under the stripe latch, so per-object sequences are monotonic in
// write order — the property RollbackSet relies on. Like ReadCtx, ctx
// only bounds injected stall latency.
func (st *Store) writeSeq(ctx context.Context, name string, v Value) (Versioned, uint64) {
	sp := st.stripe(name)
	sp.mu.Lock()
	st.stall(ctx, fault.StoreWriteDelay)
	seq := st.writes.Add(1)
	obj := sp.object(name)
	prev := *obj
	obj.Value = v
	obj.Version++
	if tr := st.tracer(); tr.Wants(trace.KindStoreWrite) {
		tr.Emit(trace.Event{Kind: trace.KindStoreWrite, Object: name, Value: int64(v), Version: obj.Version})
	}
	sp.mu.Unlock()
	return prev, seq
}

// restore rewinds an object to a previous state (abort path).
func (st *Store) restore(name string, prev Versioned) {
	sp := st.stripe(name)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	obj := sp.object(name)
	obj.Value = prev.Value
	obj.Version++ // versions never move backward, even on undo
}

func (sp *storeStripe) object(name string) *Versioned {
	obj, ok := sp.objects[name]
	if !ok {
		obj = &Versioned{}
		sp.objects[name] = obj
	}
	return obj
}

// Snapshot returns a copy of all object values.
func (st *Store) Snapshot() map[string]Value {
	out := make(map[string]Value)
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		for name, obj := range sp.objects {
			out[name] = obj.Value
		}
		sp.mu.Unlock()
	}
	return out
}

// Stats reports cumulative read and write counts.
func (st *Store) Stats() (reads, writes uint64) {
	return st.reads.Load(), st.writes.Load()
}

// UndoLog records before-images for one transaction so its effects can
// be rolled back on abort. Entries are replayed in reverse.
type UndoLog struct {
	entries []undoEntry
}

type undoEntry struct {
	object string
	prev   Versioned
	seq    uint64 // global write sequence, for cross-log ordering
}

// WriteLogged performs a write through the log, capturing the
// before-image first.
func (log *UndoLog) WriteLogged(st *Store, name string, v Value) {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: WriteLoggedCtx is the context-aware form
	log.WriteLoggedCtx(context.Background(), st, name, v)
}

// WriteLoggedCtx is WriteLogged under a run context (see ReadCtx for
// the cancellation contract).
func (log *UndoLog) WriteLoggedCtx(ctx context.Context, st *Store, name string, v Value) {
	prev, seq := st.writeSeq(ctx, name, v)
	log.entries = append(log.entries, undoEntry{object: name, prev: prev, seq: seq})
}

// Discard forgets the log without undoing, keeping its capacity.
func (log *UndoLog) Discard() { log.entries = log.entries[:0] }

// RollbackSet undoes the writes of several transactions together,
// replaying before-images in descending global write order. This is
// required when aborts cascade: if transaction B overwrote A's
// uncommitted write, B's before-image must be restored before A's, or
// A's rollback would be clobbered. All passed logs are cleared.
func RollbackSet(st *Store, logs []*UndoLog) {
	var all []undoEntry
	for _, log := range logs {
		all = append(all, log.entries...)
		log.entries = nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	for _, e := range all {
		st.restore(e.object, e.prev)
	}
}

// String summarizes the store for debugging.
func (st *Store) String() string {
	snap := st.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, snap[n])
	}
	return out
}
