// Package spsc provides the bounded single-producer/single-consumer slab
// queue behind the concurrent ingestion pipeline (fj.EventQueue feeding
// the merge stage). Capacity is counted in elements, not slabs, so
// backpressure is proportional to the memory actually buffered: when the
// producer runs ahead of the consumer its Push blocks until the consumer
// drains — producers stall, memory never grows without bound.
package spsc

import (
	"errors"
	"sync"
)

// DefaultCapacity is the buffered-element bound used when a caller passes
// a non-positive capacity.
const DefaultCapacity = 1 << 12

// DefaultSlabSize is the preferred slab allocation size used when a
// caller passes a non-positive slab size.
const DefaultSlabSize = 256

// ErrClosed is returned by Push after Close: the producer declared its
// stream finished, so a late push is a protocol violation by the caller.
var ErrClosed = errors.New("spsc: push on closed queue")

// Stats is the per-queue backpressure accounting snapshot.
type Stats struct {
	Pushed   uint64 // elements accepted into the queue
	Stalls   uint64 // Push calls that had to wait for the consumer
	MaxDepth uint64 // high-water mark of buffered elements
}

// Queue is a bounded single-producer/single-consumer queue of element
// slabs. Push blocks while the queue holds capacity or more buffered
// elements (a slab larger than the capacity is still accepted once the
// queue is empty, so oversized batches make progress instead of
// deadlocking). Cancel unblocks both sides.
type Queue[T any] struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	slabs    [][]T // FIFO of pushed slabs
	free     [][]T // recycled slabs handed back to the producer
	buffered int   // total elements across slabs
	capacity int
	slabSize int

	closed   bool // producer finished; no more pushes
	canceled bool // shutdown: drop backpressure, unblock everyone

	stats Stats
}

// New returns a queue bounded at capacity buffered elements
// (DefaultCapacity when capacity <= 0); slabSize is the preferred slab
// allocation size for NewSlab (DefaultSlabSize when <= 0).
func New[T any](capacity, slabSize int) *Queue[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if slabSize <= 0 {
		slabSize = DefaultSlabSize
	}
	q := &Queue[T]{capacity: capacity, slabSize: slabSize}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// NewSlab returns an empty slab for the producer to fill, reusing a
// recycled one when available. Producer side only.
func (q *Queue[T]) NewSlab() []T {
	q.mu.Lock()
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		q.mu.Unlock()
		return s[:0]
	}
	q.mu.Unlock()
	return make([]T, 0, q.slabSize)
}

// Push appends a filled slab to the queue, blocking while the queue is
// at capacity. On success the queue owns the slab (the producer must
// grab a fresh one via NewSlab). It returns ErrClosed after Close.
// After Cancel it returns nil without accepting the slab — producers
// treat the push as a no-op and keep their slab.
func (q *Queue[T]) Push(slab []T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	stalled := false
	for {
		if q.canceled {
			return nil
		}
		if q.closed {
			return ErrClosed
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
func (q *Queue[T]) Pop() (slab []T, ok bool) {
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
func (q *Queue[T]) Recycle(slab []T) {
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
func (q *Queue[T]) Close() {
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
func (q *Queue[T]) Cancel() {
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

// Depth returns the number of currently buffered elements.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.buffered
}

// Stats returns the queue's backpressure counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}
