package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"relser/internal/engine"
	"relser/internal/metrics"
	"relser/internal/trace"
)

// Span is one transaction instance's lifecycle, assembled from the
// engine's Admit→…→Commit/Abort stage transitions and enriched with the
// RSG evidence that explains its fate: the reason the driver gave for
// an abort and the conflict cycles the protocol rejected against it.
type Span struct {
	// Instance is the runtime instance number, Txn the program's ID.
	Instance int64 `json:"instance"`
	Txn      int   `json:"txn"`
	// Start and End are nanoseconds since the plane's epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Status is StatusCommitted or StatusAborted.
	Status SpanStatus `json:"status"`
	// Reason qualifies aborts (the driver's abort reason).
	Reason string `json:"reason,omitempty"`
	// Ops is the number of operations the instance executed.
	Ops int `json:"ops"`
	// Restarts is the program's restart count at admission.
	Restarts int `json:"restarts"`
	// Links are the causal explanations observed against this instance
	// while it ran: RSG cycle rejections, conflict cycles, deadlocks.
	Links []SpanLink `json:"links,omitempty"`
}

// SpanStatus is a span's terminal status. The statuses form a closed
// registry (SpanStatuses); the registrydrift analyzer validates
// SpanStatus-typed string literals against it, so a typo cannot
// silently produce spans no dashboard filter matches.
type SpanStatus string

// The registered terminal span statuses.
const (
	StatusCommitted SpanStatus = "committed"
	StatusAborted   SpanStatus = "aborted"
)

// SpanStatuses returns the registered terminal span statuses.
func SpanStatuses() []SpanStatus {
	return []SpanStatus{StatusCommitted, StatusAborted}
}

// SpanLink ties a span to one piece of scheduling evidence.
type SpanLink struct {
	// Kind is the trace kind that produced the link ("cycle-reject",
	// "conflict-cycle", "deadlock").
	Kind string `json:"kind"`
	// Detail renders the evidence (the cycle chain in paper notation).
	Detail string `json:"detail"`
}

// maxSpanLinks bounds per-span evidence so an abort storm cannot grow
// one span without bound.
const maxSpanLinks = 8

// spanCap is the completed-span retention.
const spanCap = 1 << 12

// spanTable assembles spans from stage hooks (lifecycle) and trace
// events (enrichment). Hooks run under the drivers' lifecycle locks and
// events arrive from the operation path, so the table has its own
// mutex; only rare kinds (admission, commit, abort, cycle evidence)
// ever reach it — the per-operation hot path never takes this lock.
type spanTable struct {
	mu     sync.Mutex
	live   map[int64]*Span
	done   []Span // ring of completed spans
	next   int    // next overwrite position in done
	wrap   bool   // done has wrapped at least once
	epoch  time.Time
	liveG  *metrics.Gauge
	doneC  *metrics.Counter
	closed uint64
}

func newSpanTable(epoch time.Time, reg *metrics.Registry) *spanTable {
	t := &spanTable{
		live:  make(map[int64]*Span),
		done:  make([]Span, 0, spanCap),
		epoch: epoch,
	}
	if reg != nil {
		t.liveG = reg.Gauge("obs.spans_live")
		t.doneC = reg.Counter("obs.spans_completed")
	}
	return t
}

//rsvet:allow detlint -- observational span timestamps; the plane is a sink, nothing it stamps feeds a decision
func (t *spanTable) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// admit opens an instance's span; Plane.Hooks chains it into the
// engine's Admit stage. The per-operation stages never reach the
// table.
func (t *spanTable) admit(st *engine.Instance) {
	sp := &Span{
		Instance: st.ID, Txn: int(st.Program.ID),
		Start: t.now(), Restarts: st.Restarts,
	}
	t.mu.Lock()
	t.live[st.ID] = sp
	t.liveG.Add(1)
	t.mu.Unlock()
}

// finish closes the instance's span. The engine emits the txn-abort
// trace event (which carries the driver's reason) before firing the
// abort hook, so by the time finish runs the span's Reason is already
// enriched via observe.
func (t *spanTable) finish(st *engine.Instance, status SpanStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.live[st.ID]
	if !ok {
		return
	}
	delete(t.live, st.ID)
	sp.End = t.now()
	sp.Status = status
	sp.Ops = st.Next
	t.push(*sp)
	t.liveG.Add(-1)
	t.doneC.Inc()
}

// push appends a completed span, overwriting the oldest once the
// retention capacity is reached.
func (t *spanTable) push(sp Span) {
	t.closed++
	if len(t.done) < cap(t.done) {
		t.done = append(t.done, sp)
		return
	}
	t.wrap = true
	t.done[t.next] = sp
	t.next = (t.next + 1) % len(t.done)
}

// observe enriches spans from the event stream: abort reasons and cycle
// evidence. Called only for the rare kinds the plane routes here.
func (t *spanTable) observe(ev trace.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.live[ev.Instance]
	if !ok {
		return
	}
	switch ev.Kind {
	case trace.KindTxnAbort:
		sp.Reason = ev.Reason
	case trace.KindCycleReject, trace.KindConflictCycle, trace.KindDeadlock:
		if len(sp.Links) < maxSpanLinks && ev.Cycle != nil {
			sp.Links = append(sp.Links, SpanLink{Kind: string(ev.Kind), Detail: ev.Cycle.String()})
		}
	}
}

// Completed returns the retained completed spans, oldest first.
func (t *spanTable) Completed() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrap {
		return append([]Span(nil), t.done...)
	}
	out := make([]Span, 0, len(t.done))
	out = append(out, t.done[t.next:]...)
	out = append(out, t.done[:t.next]...)
	return out
}

// WriteSpansJSONL encodes spans one JSON object per line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansChrome renders spans in Chrome trace_event JSON: one lane
// per instance with a B/E pair over its lifetime, abort reasons and
// cycle links as span args. Load in chrome://tracing or
// ui.perfetto.dev.
func WriteSpansChrome(w io.Writer, spans []Span) error {
	type chromeEvent struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		PID   int            `json:"pid"`
		TID   int64          `json:"tid"`
		TS    float64        `json:"ts"`
		Args  map[string]any `json:"args,omitempty"`
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := make([]chromeEvent, 0, 2*len(spans))
	for _, sp := range spans {
		args := map[string]any{
			"status": sp.Status, "ops": sp.Ops, "restarts": sp.Restarts,
		}
		if sp.Reason != "" {
			args["reason"] = sp.Reason
		}
		for i, l := range sp.Links {
			args[fmt.Sprintf("link%d", i)] = fmt.Sprintf("%s: %s", l.Kind, l.Detail)
		}
		name := fmt.Sprintf("T%d (inst %d)", sp.Txn, sp.Instance)
		out = append(out,
			chromeEvent{Name: name, Phase: "B", PID: 1, TID: sp.Instance, TS: us(sp.Start), Args: args},
			chromeEvent{Name: name, Phase: "E", PID: 1, TID: sp.Instance, TS: us(sp.End)},
		)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": out})
}
