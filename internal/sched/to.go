package sched

import (
	"fmt"
	"sync"

	"relser/internal/core"
	"relser/internal/shard"
	"relser/internal/trace"
)

// TO is basic timestamp ordering [RSL78], included as an additional
// classical baseline: every transaction instance carries a timestamp
// (its monotonically increasing instance number), and an operation is
// admitted only if it does not arrive "late" with respect to
// higher-timestamped accesses already executed on its object. All
// conflicting operation pairs therefore execute in timestamp order, so
// the serialization graph's arcs ascend timestamps and the emitted
// executions are conflict serializable.
//
// Late operations abort their transaction (restart assigns a fresh,
// higher timestamp). There is no Thomas write rule: writes are applied
// in place by the runtime, so silently skipping an outdated write is
// not available.
//
// All protocol state is per-object, so TO stripes it over the shared
// shard router and is shard-safe: requests on different objects only
// ever touch different stripes.
type TO struct {
	traced
	router  shard.Router
	stripes []*toStripe
}

type toStripe struct {
	mu      sync.Mutex
	objects map[string]*toState
}

type toState struct {
	maxRead  int64
	maxWrite int64
}

// NewTOSharded returns basic timestamp ordering with the object table
// striped over Normalize(shards) stripes.
func NewTOSharded(shards int) *TO {
	router := shard.NewRouter(shards)
	p := &TO{router: router, stripes: make([]*toStripe, router.Shards())}
	for i := range p.stripes {
		p.stripes[i] = &toStripe{objects: make(map[string]*toState)}
	}
	return p
}

// Name implements Protocol.
func (p *TO) Name() string { return "to" }

// ConcurrentShardSafe implements ShardSafe.
func (p *TO) ConcurrentShardSafe() bool { return true }

// Begin implements Protocol. Timestamps are the instance numbers the
// runtime assigns, which are globally monotonic across restarts.
func (p *TO) Begin(int64, *core.Transaction) {}

// Request implements Protocol.
func (p *TO) Request(req OpRequest) Decision {
	sp := p.stripes[p.router.Shard(req.Op.Object)]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st := sp.objects[req.Op.Object]
	if st == nil {
		st = &toState{}
		sp.objects[req.Op.Object] = st
	}
	ts := req.Instance
	if req.Op.Kind == core.ReadOp {
		if st.maxWrite > ts {
			p.explainReject(req, st) // a younger transaction already wrote the object
			return Abort
		}
		if ts > st.maxRead {
			st.maxRead = ts
		}
		return Grant
	}
	if st.maxRead > ts || st.maxWrite > ts {
		p.explainReject(req, st) // a younger transaction already read or wrote it
		return Abort
	}
	st.maxWrite = ts
	return Grant
}

// explainReject emits a ts-reject event naming the object timestamps
// that make the request late. Tracing-only cold path.
func (p *TO) explainReject(req OpRequest, st *toState) {
	if !p.tr.Enabled() {
		return
	}
	p.tr.Emit(trace.Event{
		Kind:     trace.KindTimestampReject,
		Protocol: p.Name(),
		Instance: req.Instance,
		Txn:      int(req.Op.Txn),
		Seq:      req.Seq,
		Op:       req.Op.String(),
		Object:   req.Op.Object,
		Reason: fmt.Sprintf("%s with timestamp %d arrives late on %s (maxRead %d, maxWrite %d)",
			req.Op, req.Instance, req.Op.Object, st.maxRead, st.maxWrite),
	})
}

// CanCommit implements Protocol.
func (p *TO) CanCommit(int64) bool { return true }

// Commit implements Protocol. Timestamps are retained conservatively;
// they only ever tighten admission.
func (p *TO) Commit(int64) {}

// Abort implements Protocol. The victim's timestamp marks persist —
// basic T/O does not rewind object timestamps, which is conservative
// (it may abort a later reader that would have been safe) but never
// admits an out-of-order conflict.
func (p *TO) Abort(int64) {}
