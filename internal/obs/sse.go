package obs

import (
	"sync"
	"sync/atomic"

	"relser/internal/metrics"
	"relser/internal/trace"
)

// broadcaster fans recorded events to SSE subscribers. The hot path
// pays one atomic load when nobody is listening; with subscribers it
// takes a read lock and performs non-blocking sends — a subscriber that
// cannot keep up loses events (counted) rather than stalling the run.
type broadcaster struct {
	mu      sync.RWMutex
	subs    map[int]chan trace.Event
	nextID  int
	active  atomic.Int64
	subsG   *metrics.Gauge
	dropped *metrics.Counter
}

// subscriberBuffer is each subscriber's channel depth; the tail handler
// drains it into the HTTP response.
const subscriberBuffer = 256

func newBroadcaster(reg *metrics.Registry) *broadcaster {
	b := &broadcaster{subs: make(map[int]chan trace.Event)}
	if reg != nil {
		b.subsG = reg.Gauge("obs.sse_subscribers")
		b.dropped = reg.Counter("obs.sse_dropped")
	}
	return b
}

// broadcast offers the event to every subscriber without blocking.
func (b *broadcaster) broadcast(ev trace.Event) {
	if b.active.Load() == 0 {
		return
	}
	b.mu.RLock()
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.dropped.Inc()
		}
	}
	b.mu.RUnlock()
}

// subscribe registers a new tail; the caller must unsubscribe with the
// returned id when done.
func (b *broadcaster) subscribe() (int, <-chan trace.Event) {
	ch := make(chan trace.Event, subscriberBuffer)
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	b.subs[id] = ch
	b.mu.Unlock()
	b.active.Add(1)
	b.subsG.Add(1)
	return id, ch
}

func (b *broadcaster) unsubscribe(id int) {
	b.mu.Lock()
	_, ok := b.subs[id]
	delete(b.subs, id)
	b.mu.Unlock()
	if ok {
		b.active.Add(-1)
		b.subsG.Add(-1)
	}
}
