// Package fixture exercises the hookshape analyzer.
package fixture

import (
	"context"
	"sync"
	"time"

	"relser/internal/engine"
	"relser/internal/storage"
)

// install wires hooks in the shapes the analyzer understands: a
// composite literal, field assignments, and a combinator call.
func install(core *engine.Core) engine.Hooks {
	var mu sync.Mutex
	counts := map[string]int{}
	h := engine.Hooks{
		// Leaf mutex plus map write: the sanctioned observer pattern.
		Admit: func(st *engine.Instance) {
			mu.Lock()
			counts["admit"]++
			mu.Unlock()
		},
		Commit: func(st *engine.Instance) { // want `hook Commit may block`
			time.Sleep(time.Millisecond)
		},
	}
	h.Abort = func(st *engine.Instance) { // want `hook Abort calls back into engine/driver`
		core.AbortAll("observer")
	}
	return h
}

// stages reaches the engine's restart accounting and its operation
// step from hooks, which re-enters; reading the logical clock is fine.
func stages(core *engine.Core) engine.Hooks {
	h := engine.Hooks{}
	h.Abort = func(st *engine.Instance) { // want `hook Abort calls back into engine/driver`
		core.Restart(st)
	}
	h.Apply = func(st *engine.Instance) { // want `hook Apply calls back into engine/driver`
		core.Step(context.Background(), st, 0)
	}
	h.Admit = func(st *engine.Instance) { _ = core.Now() }
	return h
}

// flushAll is the interprocedural blocking step: the hook below only
// calls it.
func flushAll(wg *sync.WaitGroup) { wg.Wait() }

func installRecover(wg *sync.WaitGroup) engine.Hooks {
	h := engine.Hooks{}
	h.Recover = func() { // want `hook Recover may block`
		flushAll(wg)
	}
	return h
}

// chain mirrors the obs/record combinator: function-valued arguments
// of a call assigned into a hook field are themselves hook roots.
func chain(first, then func(*engine.Instance)) func(*engine.Instance) {
	if first == nil {
		return then
	}
	if then == nil {
		return first
	}
	return func(st *engine.Instance) {
		first(st)
		then(st)
	}
}

func wrap(prev engine.Hooks) engine.Hooks {
	var mu sync.Mutex
	n := 0
	h := prev
	h.Issue = chain(func(st *engine.Instance) {
		mu.Lock()
		n++
		mu.Unlock()
	}, prev.Issue)
	h.Decide = chain(func(st *engine.Instance) { // want `hook Decide may block`
		ch := make(chan int)
		<-ch
	}, prev.Decide)
	return h
}

// gated parks deliberately; the exception is documented.
func gated(gate chan struct{}) engine.Hooks {
	h := engine.Hooks{}
	//rsvet:allow hookshape -- test-only gate, a single worker drives the run
	h.Apply = func(st *engine.Instance) { <-gate }
	return h
}

// lastSeen and ledger are state that outlives a hook call.
var lastSeen *engine.Instance

type ledger struct {
	insts   []*engine.Instance
	writes  map[string]storage.Value
	pending []func()
	ids     []int64
	ops     int
}

// keepers hold on to the instance past the hook, which the engine
// reuses once it commits.
func keepers(l *ledger, ch chan *engine.Instance) engine.Hooks {
	h := engine.Hooks{}
	h.Admit = func(st *engine.Instance) { // want `hook Admit keeps its instance \(assigns it to lastSeen\)`
		lastSeen = st
	}
	h.Commit = func(st *engine.Instance) { // want `hook Commit keeps its instance \(appends it to a slice\)`
		l.insts = append(l.insts, st)
	}
	h.Abort = func(st *engine.Instance) { // want `hook Abort keeps its instance \(assigns it to l.writes\)`
		w := st.Writes
		l.writes = w
	}
	h.Issue = func(st *engine.Instance) { // want `hook Issue keeps its instance \(captures it in a go statement\)`
		go func() { _ = st.Next }()
	}
	h.Decide = func(st *engine.Instance) { // want `hook Decide may block` // want `hook Decide keeps its instance \(sends it on a channel\)`
		select {
		case ch <- st:
		default:
		}
	}
	h.Apply = func(st *engine.Instance) { // want `hook Apply keeps its instance \(passes it to fixture.remember, which assigns it to lastSeen\)`
		remember(st)
	}
	return h
}

func remember(st *engine.Instance) { lastSeen = st }

// deferred keeps the instance inside a closure it queues.
func deferred(l *ledger) engine.Hooks {
	h := engine.Hooks{}
	h.Commit = func(st *engine.Instance) { // want `hook Commit keeps its instance \(appends it to a slice\)`
		l.pending = append(l.pending, func() { _ = st.Next })
	}
	return h
}

// copiers copy the fields they need, directly or through a helper,
// and use the instance and its maps only locally.
func copiers(l *ledger) engine.Hooks {
	var mu sync.Mutex
	ops := map[int64]int{}
	h := engine.Hooks{}
	h.Commit = func(st *engine.Instance) {
		mu.Lock()
		ops[st.ID] = st.Next
		l.ops += len(st.Writes)
		snap := map[string]storage.Value{}
		for k, v := range st.Writes {
			snap[k] = v
		}
		alias := st
		_ = alias.Restarts
		mu.Unlock()
	}
	h.Abort = func(st *engine.Instance) { note(l, st) }
	return h
}

func note(l *ledger, st *engine.Instance) { l.ids = append(l.ids, st.ID) }
