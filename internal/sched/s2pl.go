package sched

import (
	"slices"
	"sync"

	"relser/internal/core"
	"relser/internal/graph"
	"relser/internal/shard"
	"relser/internal/trace"
)

// S2PL is strict two-phase locking: a transaction acquires a shared
// lock before reading and an exclusive lock before writing, holds all
// locks until commit or abort, and is aborted when its wait would close
// a cycle in the waits-for graph (deadlock; the requester is the
// victim).
//
// The lock table is striped over the shared shard router so the
// protocol is shard-safe: concurrent Request calls for different
// objects touch different stripes and only meet on the waits-for
// graph's mutex, which guards the blocking slow path alone. Per-
// instance bookkeeping (held locks, pending waits) is mutated only by
// the instance's own worker or under the driver's exclusive lifecycle
// lock, so it needs no locking of its own (see ShardSafe).
type S2PL struct {
	traced
	router  shard.Router
	stripes []*s2plStripe

	// wmu guards the waits-for graph and its vertex table; only the
	// blocking slow path and instance lifecycle take it.
	wmu       sync.Mutex
	nodeOf    map[int64]int
	insts     []int64 // vertex -> instance
	waits     *graph.Sparse
	waitingOn map[int64][]int64
	// freeNodes holds the isolated vertices of released instances for
	// reuse, so the waits-for graph is as large as the most instances
	// ever live at once rather than every instance ever begun.
	freeNodes []int

	// entries holds per-instance state: created at Begin, dropped at
	// release, mutated only by the owning worker in between.
	entries map[int64]*s2plInst
	// progs retains programs for explanation events; populated only
	// while tracing.
	progs map[int64]*core.Transaction
}

type s2plStripe struct {
	mu    sync.Mutex
	locks map[string]*lockState
}

type s2plInst struct {
	held []string
	// waiting is set while the instance has live waits-for arcs; the
	// next grant withdraws them lazily.
	waiting bool
}

type lockState struct {
	// readers holds shared-lock holders; writer is the exclusive
	// holder (0 when none). An instance may appear in readers and as
	// the writer during an upgrade.
	readers map[int64]bool
	writer  int64
}

// NewS2PL returns a strict two-phase locking protocol with a single
// lock-table stripe (the classical global lock manager).
func NewS2PL() *S2PL { return NewS2PLSharded(1) }

// NewS2PLSharded returns strict two-phase locking with the lock table
// striped over Normalize(shards) stripes.
func NewS2PLSharded(shards int) *S2PL {
	router := shard.NewRouter(shards)
	p := &S2PL{
		router:    router,
		stripes:   make([]*s2plStripe, router.Shards()),
		nodeOf:    make(map[int64]int),
		waits:     graph.NewSparse(0),
		waitingOn: make(map[int64][]int64),
		entries:   make(map[int64]*s2plInst),
		progs:     make(map[int64]*core.Transaction),
	}
	for i := range p.stripes {
		p.stripes[i] = &s2plStripe{locks: make(map[string]*lockState)}
	}
	return p
}

// Name implements Protocol.
func (p *S2PL) Name() string { return "s2pl" }

// ConcurrentShardSafe implements ShardSafe.
func (p *S2PL) ConcurrentShardSafe() bool { return true }

// Begin implements Protocol.
func (p *S2PL) Begin(instance int64, program *core.Transaction) {
	if _, ok := p.entries[instance]; ok {
		return
	}
	p.entries[instance] = &s2plInst{}
	p.wmu.Lock()
	if n := len(p.freeNodes); n > 0 {
		v := p.freeNodes[n-1]
		p.freeNodes = p.freeNodes[:n-1]
		p.nodeOf[instance], p.insts[v] = v, instance
	} else {
		p.nodeOf[instance] = p.waits.AddVertex()
		p.insts = append(p.insts, instance)
	}
	p.wmu.Unlock()
	if p.tr.Enabled() {
		p.progs[instance] = program
	}
}

// Request implements Protocol: grant if the needed lock is compatible
// with current holders; otherwise install waits-for edges and either
// block or, if that closes a cycle, abort the requester.
func (p *S2PL) Request(req OpRequest) Decision {
	e := p.entries[req.Instance]
	sp := p.stripeFor(req.Op.Object)
	sp.mu.Lock()
	st := sp.lockLocked(req.Op.Object)
	blockers := p.conflictingHolders(st, req)
	if len(blockers) == 0 {
		p.acquire(st, req)
		sp.mu.Unlock()
		if e != nil && e.waiting {
			p.clearWaits(req.Instance)
			e.waiting = false
		}
		return Grant
	}
	sp.mu.Unlock()
	// Under the concurrent driver no holder can release between the
	// stripe unlock and the waits installation (releases run under the
	// driver's exclusive lock, which the whole request path excludes),
	// and the deterministic runner is single-threaded — so blockers
	// are still live here.
	return p.wait(p.Name(), req, blockers)
}

// wait queues req behind its blockers and returns Block, or Abort when
// the wait would close a waits-for cycle: the requester is the victim,
// its waits edges are already withdrawn, and its locks are released by
// the driver's Abort. protocol names the explanation events.
func (p *S2PL) wait(protocol string, req OpRequest, blockers []int64) Decision {
	cyc, deadlock := p.installWaits(req.Instance, blockers)
	if deadlock {
		if p.tr.Enabled() {
			p.tr.Emit(deadlockEvent(protocol, req, cyc))
		}
		return Abort
	}
	if e := p.entries[req.Instance]; e != nil {
		e.waiting = true
	}
	if p.tr.Enabled() {
		p.tr.Emit(blockEvent(protocol, req, blockers))
	}
	return Block
}

// installWaits records waits-for arcs from the instance to its
// blockers under the graph mutex. If the arcs close a cycle they are
// withdrawn again and deadlock=true is returned, together with the
// rendered cycle witness when tracing is enabled.
func (p *S2PL) installWaits(instance int64, blockers []int64) (cyc *trace.Cycle, deadlock bool) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.clearWaitsLocked(instance)
	me, ok := p.nodeOf[instance]
	if !ok {
		return nil, false
	}
	for _, b := range blockers {
		if n, alive := p.nodeOf[b]; alive {
			p.waits.AddArc(me, n)
			p.waitingOn[instance] = append(p.waitingOn[instance], b)
		}
	}
	if verts := p.waits.FindCycleFrom(me); verts != nil {
		if p.tr.Enabled() {
			cyc = waitCycle(verts, p.instanceAt, p.progs)
		}
		p.clearWaitsLocked(instance)
		return cyc, true
	}
	return nil, false
}

// instanceAt maps a waits-for graph vertex back to its instance. Must
// be called with wmu held.
func (p *S2PL) instanceAt(v int) int64 { return p.insts[v] }

// conflictingHolders returns the instances whose locks block req,
// sorted for determinism.
func (p *S2PL) conflictingHolders(st *lockState, req OpRequest) []int64 {
	var out []int64
	if req.Op.Kind == core.ReadOp {
		if st.writer != 0 && st.writer != req.Instance {
			out = append(out, st.writer)
		}
		return out
	}
	if st.writer != 0 && st.writer != req.Instance {
		out = append(out, st.writer)
	}
	for r := range st.readers {
		if r != req.Instance {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// acquire takes the lock for req. Callers must hold the object's
// stripe mutex or otherwise serialize access to st (the wrapping
// protocols run fully serialized).
func (p *S2PL) acquire(st *lockState, req OpRequest) {
	e := p.entries[req.Instance]
	if req.Op.Kind == core.ReadOp {
		if !st.readers[req.Instance] {
			st.readers[req.Instance] = true
			if e != nil {
				e.held = append(e.held, req.Op.Object)
			}
		}
		return
	}
	if st.writer != req.Instance {
		st.writer = req.Instance
		if e != nil {
			e.held = append(e.held, req.Op.Object)
		}
	}
}

// heldObjects returns the objects the instance holds locks on (the
// live slice: callers must not mutate it).
func (p *S2PL) heldObjects(instance int64) []string {
	if e := p.entries[instance]; e != nil {
		return e.held
	}
	return nil
}

// CanCommit implements Protocol.
func (p *S2PL) CanCommit(int64) bool { return true }

// Commit implements Protocol.
func (p *S2PL) Commit(instance int64) { p.release(instance) }

// Abort implements Protocol.
func (p *S2PL) Abort(instance int64) { p.release(instance) }

// release drops all locks and waits-for state. Called from lifecycle
// context (exclusive against every Request under the concurrent
// driver), so the stripe locks below are uncontended ordering hygiene.
func (p *S2PL) release(instance int64) {
	e := p.entries[instance]
	if e != nil {
		for _, obj := range e.held {
			sp := p.stripeFor(obj)
			sp.mu.Lock()
			if st := sp.locks[obj]; st != nil {
				delete(st.readers, instance)
				if st.writer == instance {
					st.writer = 0
				}
			}
			sp.mu.Unlock()
		}
	}
	delete(p.entries, instance)
	p.wmu.Lock()
	p.clearWaitsLocked(instance)
	if v, ok := p.nodeOf[instance]; ok {
		p.waits.IsolateVertex(v)
		p.freeNodes = append(p.freeNodes, v)
	}
	delete(p.nodeOf, instance)
	p.wmu.Unlock()
	delete(p.progs, instance)
}

// clearWaits withdraws the instance's waits-for arcs under the graph
// mutex.
func (p *S2PL) clearWaits(instance int64) {
	p.wmu.Lock()
	p.clearWaitsLocked(instance)
	p.wmu.Unlock()
}

func (p *S2PL) clearWaitsLocked(instance int64) {
	me, ok := p.nodeOf[instance]
	if !ok {
		return
	}
	for _, b := range p.waitingOn[instance] {
		if n, alive := p.nodeOf[b]; alive && p.waits.HasArc(me, n) {
			p.waits.RemoveArc(me, n)
		}
	}
	delete(p.waitingOn, instance)
}

func (p *S2PL) stripeFor(object string) *s2plStripe {
	return p.stripes[p.router.Shard(object)]
}

// lock returns the object's lock state, creating it on first use.
func (p *S2PL) lock(object string) *lockState {
	sp := p.stripeFor(object)
	sp.mu.Lock()
	st := sp.lockLocked(object)
	sp.mu.Unlock()
	return st
}

// lockLocked is lock with the stripe mutex already held.
func (sp *s2plStripe) lockLocked(object string) *lockState {
	st, ok := sp.locks[object]
	if !ok {
		st = &lockState{readers: make(map[int64]bool)}
		sp.locks[object] = st
	}
	return st
}
