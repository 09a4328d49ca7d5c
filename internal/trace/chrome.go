package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// chromeEvent is one record of the Chrome trace_event format
// (chrome://tracing, Perfetto). Timestamps are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int64          `json:"tid"`
	TS    float64        `json:"ts"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome renders events in Chrome trace_event JSON: each
// transaction instance becomes a thread lane whose lifetime is a
// "B"/"E" span from begin to commit/abort, and every decision,
// explanation and storage event becomes an instant on its lane. Load
// the output in chrome://tracing or ui.perfetto.dev.
func WriteChrome(w io.Writer, events []Event) error {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var out []chromeEvent
	open := make(map[int64]bool)
	var last int64
	for _, ev := range events {
		if ev.TS > last {
			last = ev.TS
		}
		switch ev.Kind {
		case KindBegin:
			out = append(out, chromeEvent{
				Name:  fmt.Sprintf("T%d (inst %d)", ev.Txn, ev.Instance),
				Phase: "B", PID: 1, TID: ev.Instance, TS: us(ev.TS),
				Args: map[string]any{"program": ev.Program, "protocol": ev.Protocol},
			})
			open[ev.Instance] = true
		case KindCommit, KindTxnAbort:
			name := "commit"
			args := map[string]any{}
			if ev.Kind == KindTxnAbort {
				name = "abort"
				args["reason"] = ev.Reason
			}
			out = append(out, chromeEvent{
				Name: name, Phase: "i", PID: 1, TID: ev.Instance,
				TS: us(ev.TS), Scope: "t", Args: args,
			})
			if open[ev.Instance] {
				out = append(out, chromeEvent{
					Name:  fmt.Sprintf("T%d (inst %d)", ev.Txn, ev.Instance),
					Phase: "E", PID: 1, TID: ev.Instance, TS: us(ev.TS),
				})
				delete(open, ev.Instance)
			}
		default:
			name := string(ev.Kind)
			if ev.Op != "" {
				name = fmt.Sprintf("%s %s", ev.Kind, ev.Op)
			} else if ev.Object != "" {
				name = fmt.Sprintf("%s %s", ev.Kind, ev.Object)
			}
			args := map[string]any{}
			if ev.Reason != "" {
				args["reason"] = ev.Reason
			}
			if ev.Protocol != "" {
				args["protocol"] = ev.Protocol
			}
			if ev.Cycle != nil {
				args["cycle"] = ev.Cycle.String()
			}
			if len(ev.Blockers) > 0 {
				args["blockers"] = ev.Blockers
			}
			out = append(out, chromeEvent{
				Name: name, Phase: "i", PID: 1, TID: ev.Instance,
				TS: us(ev.TS), Scope: "t", Args: args,
			})
		}
	}
	// Close still-open lanes so viewers render their spans, in
	// ascending instance order so the same events give the same bytes.
	lanes := make([]int64, 0, len(open))
	for inst := range open {
		lanes = append(lanes, inst)
	}
	slices.Sort(lanes)
	for _, inst := range lanes {
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("inst %d", inst), Phase: "E",
			PID: 1, TID: inst, TS: us(last),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}
