package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"relser/internal/engine"
	"relser/internal/sched"
)

// Runner executes a configuration as a deterministic discrete-event
// loop over the engine pipeline: each tick it offers one operation of
// every ready instance to the protocol in a seeded random order,
// modelling concurrent clients with an open set of in-flight
// transactions bounded by the multiprogramming level. Given the same
// seed, programs and protocol, a run reproduces exactly.
type Runner struct {
	eng *engine.Core
	// rng is the scheduling stream (tick shuffles, victim picks); restart
	// backoff draws from the engine's own stream.
	rng     *rand.Rand
	pending []*engine.Pending
}

// New validates the configuration and prepares a runner.
func New(cfg Config) (*Runner, error) {
	eng, err := engine.NewCore(cfg, engine.TickClock)
	if err != nil {
		return nil, err
	}
	r := &Runner{eng: eng, rng: rand.New(rand.NewSource(eng.Cfg.Seed))}
	for _, p := range eng.Cfg.Programs {
		r.pending = append(r.pending, &engine.Pending{Program: p})
	}
	return r, nil
}

// Run executes all programs to commit and returns the result.
func (r *Runner) Run() (*Result, error) {
	//rsvet:allow ctxflow -- ctx-less convenience wrapper: RunContext is the context-aware form
	return r.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation (or deadline expiry)
// is checked at every tick boundary and unwinds all in-flight
// instances through the engine's Recover stage — effects rolled back,
// WAL abort records appended — before the run fails with the
// cancellation cause.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	for {
		if ctx.Err() != nil {
			cause := context.Cause(ctx)
			r.eng.AbortAll(cause.Error())
			if err := r.eng.FlushWAL(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("txn: run canceled: %w", cause)
		}
		r.admit()
		if len(r.eng.Active) == 0 && len(r.pending) == 0 {
			break
		}
		r.eng.Tick()
		if len(r.eng.Active) == 0 {
			continue // all pending programs are backing off; idle tick
		}
		progress, err := r.tick(ctx)
		if err != nil {
			return nil, err
		}
		if err := r.eng.WALErr(); err != nil {
			return nil, err
		}
		if !progress {
			// No instance made progress: victimize one active instance
			// to break the stall (protocol-level blocking deadlock or a
			// commit-order cycle). The victim is chosen at random so no
			// single program starves across repeated stalls.
			victim := r.randomVictim()
			if victim == nil {
				return nil, errors.New("txn: stalled with no active instances")
			}
			if err := r.abortCascade(victim, "stall"); err != nil {
				return nil, err
			}
		}
	}
	// Final durability barrier: async appends (begin/write/abort) must
	// be flushed — and any latched lane error surfaced — before the
	// result is declared final.
	if err := r.eng.FlushWAL(); err != nil {
		return nil, err
	}
	return r.eng.Finalize(), nil
}

// admit starts ready pending programs while multiprogramming slots are
// free; programs aborted recently stay queued until their backoff
// expires.
func (r *Runner) admit() {
	limit := r.eng.AdmitLimit() // admission-controlled MPL (<= cfg.MPL)
	now := int(r.eng.Now())
	rest := r.pending[:0]
	for i, pp := range r.pending {
		if len(r.eng.Active) >= limit || pp.ReadyAt > now {
			rest = append(rest, r.pending[i])
			continue
		}
		r.eng.Admit(pp)
	}
	r.pending = rest
}

// tick offers one step to every active instance in seeded random
// order; it reports whether anything progressed.
func (r *Runner) tick(ctx context.Context) (bool, error) {
	ids := r.eng.ActiveIDs()
	r.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	progress := false
	delayed := 0
	for _, id := range ids {
		st, ok := r.eng.Active[id]
		if !ok {
			continue // aborted by an earlier cascade this tick
		}
		if st.Done {
			continue // commits happen in the post-loop commit wave
		}
		v := r.eng.Check(st)
		if v.Abort != "" {
			if err := r.abortCascade(st, v.Abort); err != nil {
				return false, err
			}
			progress = true
			continue
		}
		if v.Delay > 0 {
			// The scheduler "loses" this instance's turn for a tick.
			delayed++
			continue
		}
		op := st.Program.Op(st.Next)
		req := sched.OpRequest{Instance: st.ID, Program: st.Program, Seq: st.Next, Op: op, Ctx: ctx}
		switch r.eng.Decide(st, req) {
		case sched.Grant:
			shardIdx := r.eng.Router.Shard(op.Object)
			if r.eng.Unrecoverable(st, op, shardIdx) {
				// The access would close a dirty-data dependency cycle;
				// commit ordering could never resolve it, so abort now.
				if err := r.abortCascade(st, "recoverability"); err != nil {
					return false, err
				}
			} else {
				r.eng.Apply(ctx, st, op, shardIdx)
			}
			progress = true
		case sched.Abort:
			if err := r.abortCascade(st, "protocol"); err != nil {
				return false, err
			}
			progress = true
		}
	}
	// Commit wave: committing one instance can release another's
	// dirty-data dependency, so iterate to a fixpoint within the tick.
	// Each commit waits for its own ack before the next one publishes.
	for {
		committed := false
		for _, id := range r.eng.ActiveIDs() {
			st, ok := r.eng.Active[id]
			if !ok || !st.Done {
				continue
			}
			if r.eng.Publish(st) {
				r.eng.AwaitAck(st)
				r.eng.Acknowledge(st)
				committed = true
				progress = true
			}
		}
		if !committed {
			break
		}
	}
	if !progress && delayed > 0 {
		// Only injected grant delays held the tick back; that is not a
		// protocol stall, so do not victimize anyone over it.
		progress = true
	}
	return progress, nil
}

// abortCascade aborts the instance through the engine and requeues
// each victim's program with randomized exponential backoff, so
// identical contenders do not re-collide in lockstep forever.
func (r *Runner) abortCascade(st *engine.Instance, reason string) error {
	return r.eng.AbortCascade(st.ID, reason, func(v *engine.Instance) error {
		restarts, level, err := r.eng.Restart(v)
		if err != nil {
			return err
		}
		r.pending = append(r.pending, &engine.Pending{
			Program:  v.Program,
			Restarts: restarts,
			ReadyAt:  int(r.eng.Now()) + r.eng.BackoffTicks(restarts, level),
		})
		return nil
	})
}

// randomVictim picks a seeded-random active instance for stall
// breaking.
func (r *Runner) randomVictim() *engine.Instance {
	ids := r.eng.ActiveIDs()
	if len(ids) == 0 {
		return nil
	}
	return r.eng.Active[ids[r.rng.Intn(len(ids))]]
}
