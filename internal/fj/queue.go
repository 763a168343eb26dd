package fj

import (
	"errors"
	"sync"
)

// Bounded per-producer event queue for the concurrent ingestion pipeline
// (Theorem 4). Each instrumented task owns one EventQueue and pushes
// slabs of events into it; the single merge consumer pops slabs in
// order. Capacity is counted in events, not slabs, so backpressure is
// proportional to the memory actually buffered: when a producer runs
// ahead of the consumer its Push blocks until the consumer drains —
// producers stall, memory never grows without bound.

// DefaultBatchSize is the default producer-side slab of the event
// queues: large enough to amortize the queue's lock, small enough to
// stay resident in L1.
const DefaultBatchSize = 256

// DefaultQueueCapacity is the per-producer buffered-event bound used
// when a caller passes a non-positive capacity.
const DefaultQueueCapacity = 1 << 12

// ErrQueueClosed is returned by Push after Close: the producer declared
// its stream finished, so a late push is a protocol violation by the
// caller (typically an instrumented operation on a halted task).
var ErrQueueClosed = errors.New("fj: push on closed event queue")

// QueueStats is the per-queue backpressure accounting snapshot.
type QueueStats struct {
	Pushed   uint64 // events accepted into the queue
	Stalls   uint64 // Push calls that had to wait for the consumer
	MaxDepth uint64 // high-water mark of buffered events
}

// EventQueue is a bounded single-producer/single-consumer queue of event
// slabs. The producer side is the instrumented task goroutine; the
// consumer side is the merge stage. Push blocks while the queue holds
// capacity or more buffered events (a slab larger than the capacity is
// still accepted once the queue is empty, so oversized slabs make
// progress instead of deadlocking); it returns ErrQueueClosed after
// Close. Cancel unblocks both sides.
type EventQueue struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	slabs    [][]Event // FIFO of pushed slabs
	free     [][]Event // recycled slabs handed back to the producer
	buffered int       // total events across slabs
	capacity int
	slabSize int

	closed   bool // producer finished; no more pushes
	canceled bool // shutdown: drop backpressure, unblock everyone

	stats QueueStats
}

// NewEventQueue returns a queue bounded at capacity buffered events
// (DefaultQueueCapacity when capacity <= 0); slabSize is the preferred
// slab allocation size for NewSlab (DefaultBatchSize when <= 0).
func NewEventQueue(capacity, slabSize int) *EventQueue {
	if capacity <= 0 {
		capacity = DefaultQueueCapacity
	}
	if slabSize <= 0 {
		slabSize = DefaultBatchSize
	}
	q := &EventQueue{capacity: capacity, slabSize: slabSize}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// NewSlab returns an empty slab for the producer to fill, reusing a
// recycled one when available. Producer side only.
func (q *EventQueue) NewSlab() []Event {
	q.mu.Lock()
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		q.mu.Unlock()
		return s[:0]
	}
	q.mu.Unlock()
	return make([]Event, 0, q.slabSize)
}

// Push appends a filled slab to the queue, blocking while the queue is
// at capacity. On success the queue owns the slab (the producer must
// grab a fresh one via NewSlab). It returns ErrQueueClosed after Close.
// After Cancel it returns nil without accepting the slab — producers
// treat the push as a no-op and keep their slab.
func (q *EventQueue) Push(slab []Event) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	stalled := false
	for {
		if q.canceled {
			return nil
		}
		if q.closed {
			return ErrQueueClosed
		}
		// Admit when under capacity, or unconditionally when empty so a
		// slab larger than the whole capacity still makes progress.
		if q.buffered == 0 || q.buffered+len(slab) <= q.capacity {
			break
		}
		if !stalled {
			stalled = true
			q.stats.Stalls++
		}
		q.notFull.Wait()
	}
	q.slabs = append(q.slabs, slab)
	q.buffered += len(slab)
	q.stats.Pushed += uint64(len(slab))
	if d := uint64(q.buffered); d > q.stats.MaxDepth {
		q.stats.MaxDepth = d
	}
	q.notEmpty.Signal()
	return nil
}

// Pop removes and returns the oldest slab, blocking until one is
// available. ok is false once the queue is closed (or canceled) and
// drained. Consumer side only.
func (q *EventQueue) Pop() (slab []Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.slabs) == 0 {
		if q.closed || q.canceled {
			return nil, false
		}
		q.notEmpty.Wait()
	}
	slab = q.slabs[0]
	q.slabs[0] = nil
	q.slabs = q.slabs[1:]
	q.buffered -= len(slab)
	q.notFull.Signal()
	return slab, true
}

// Recycle hands a fully consumed slab back to the producer-side free
// list. Consumer side only.
func (q *EventQueue) Recycle(slab []Event) {
	q.mu.Lock()
	if !q.closed && len(q.free) < 4 {
		q.free = append(q.free, slab[:0])
	}
	q.mu.Unlock()
}

// Close marks the producer stream finished: pending slabs remain
// poppable, further pushes fail, and a blocked Pop returns once the
// queue drains. The free list is released. Close is idempotent — the
// teardown paths of a session (clean finish, error, shutdown drain) may
// each close the queue without coordinating, and later calls are
// no-ops: buffered slabs are delivered exactly once.
func (q *EventQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.free = nil
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// Cancel aborts the queue for shutdown: blocked producers and the
// consumer are released, pending slabs stay poppable (so the consumer
// may drain what was already buffered), and new pushes are dropped.
// Like Close it is idempotent, and the two may arrive in either order
// from racing teardown paths.
func (q *EventQueue) Cancel() {
	q.mu.Lock()
	if q.canceled {
		q.mu.Unlock()
		return
	}
	q.canceled = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// Stats returns the queue's backpressure counters.
func (q *EventQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}
