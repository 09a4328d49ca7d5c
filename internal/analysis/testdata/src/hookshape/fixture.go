// Package fixture exercises the hookshape analyzer.
package fixture

import (
	"context"
	"sync"
	"time"

	"relser/internal/engine"
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
