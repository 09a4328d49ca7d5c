// Package fixture exercises the stripelock analyzer.
package fixture

import (
	"context"
	"sync"

	"relser/internal/fault"
)

type fooStripe struct {
	mu   sync.Mutex
	cond *sync.Cond
}

// waitQueue is a stripe type by its name, like the driver's wait
// queues.
type waitQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
}

type plain struct {
	mu sync.Mutex
}

type table struct {
	stripes []fooStripe
	other   *fooStripe
	in      *fault.Injector
	ch      chan int
}

func (t *table) ascendingConstOK() {
	t.stripes[0].mu.Lock()
	t.stripes[2].mu.Lock()
	t.stripes[2].mu.Unlock()
	t.stripes[0].mu.Unlock()
}

func (t *table) descendingConst() {
	t.stripes[2].mu.Lock()
	t.stripes[0].mu.Lock() // want `ascending index order`
	t.stripes[0].mu.Unlock()
	t.stripes[2].mu.Unlock()
}

func (t *table) unprovableOrder(i, j int) {
	t.stripes[i].mu.Lock()
	t.stripes[j].mu.Lock() // want `cannot be proven ascending`
	t.stripes[j].mu.Unlock()
	t.stripes[i].mu.Unlock()
}

func (t *table) selfDeadlock() {
	t.other.mu.Lock()
	t.other.mu.Lock() // want `self-deadlock`
	t.other.mu.Unlock()
}

func (t *table) distinctStripes() {
	t.stripes[0].mu.Lock()
	t.other.mu.Lock() // want `provable ascending order`
	t.other.mu.Unlock()
	t.stripes[0].mu.Unlock()
}

func (t *table) sendUnderStripe(v int) {
	t.other.mu.Lock()
	t.ch <- v // want `channel send`
	t.other.mu.Unlock()
	t.ch <- v // fine: stripe released
}

func (t *table) ownCondOK(sh *fooStripe) {
	sh.mu.Lock()
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

func (t *table) foreignCond(sh *fooStripe) {
	sh.mu.Lock()
	t.other.cond.Broadcast() // want `foreign condition variable`
	sh.mu.Unlock()
}

func (t *table) foreignQueueCond(sh, commits *waitQueue) {
	sh.mu.Lock()
	commits.cond.Broadcast() // want `foreign condition variable`
	sh.mu.Unlock()
	commits.mu.Lock()
	commits.cond.Broadcast()
	commits.mu.Unlock()
}

func (t *table) faultUnderStripe(sh *fooStripe) {
	sh.mu.Lock()
	if t.in.Fire(fault.ShardStall) { // want `fault injector Fire`
	}
	sh.mu.Unlock()
	t.in.Fire(fault.ShardStall) // fine: stripe released
}

func (t *table) suppressed(sh *fooStripe) {
	sh.mu.Lock()
	//rsvet:allow stripelock -- deliberate, fixture proves suppression works
	t.in.WedgeCtx(context.Background())
	sh.mu.Unlock()
}

// calledWithLockHeld has the locks directive: the body is analyzed as
// if sh.mu were held on entry.
//
//rsvet:locks sh.mu
func (t *table) calledWithLockHeld(sh *fooStripe) {
	t.in.WedgeCtx(context.Background()) // want `fault injector WedgeCtx`
	sh.mu.Unlock()
	t.in.WedgeCtx(context.Background()) // fine: directive lock released above
}

// plainMutexIgnored is not a stripe type: no findings.
func (t *table) plainMutexIgnored(p *plain, v int) {
	p.mu.Lock()
	t.ch <- v
	p.mu.Unlock()
}
