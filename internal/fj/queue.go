package fj

import "repro/internal/spsc"

// Bounded per-producer event queue for the concurrent ingestion pipeline
// (Theorem 4). Each instrumented task owns one EventQueue and pushes
// slabs of events into it; the single merge consumer pops slabs in
// order. Capacity is counted in events, not slabs, so backpressure is
// proportional to the memory actually buffered: when a producer runs
// ahead of the consumer its Push blocks until the consumer drains —
// producers stall, memory never grows without bound.
//
// The queue machinery itself lives in internal/spsc; EventQueue is its
// event instantiation.

// DefaultQueueCapacity is the per-producer buffered-event bound used
// when a caller passes a non-positive capacity.
const DefaultQueueCapacity = spsc.DefaultCapacity

// ErrQueueClosed is returned by Push after Close: the producer declared
// its stream finished, so a late push is a protocol violation by the
// caller (typically an instrumented operation on a halted task).
var ErrQueueClosed = spsc.ErrClosed

// QueueStats is the per-queue backpressure accounting snapshot.
type QueueStats = spsc.Stats

// EventQueue is a bounded single-producer/single-consumer queue of event
// slabs. The producer side is the instrumented task goroutine; the
// consumer side is the merge stage. Push blocks while the queue holds
// capacity or more buffered events (a slab larger than the capacity is
// still accepted once the queue is empty, so oversized batches make
// progress instead of deadlocking); it returns ErrQueueClosed after
// Close. Cancel unblocks both sides. See spsc.Queue for the full
// contract.
type EventQueue = spsc.Queue[Event]

// NewEventQueue returns a queue bounded at capacity buffered events
// (DefaultQueueCapacity when capacity <= 0); slabSize is the preferred
// slab allocation size for NewSlab (DefaultBatchSize when <= 0).
func NewEventQueue(capacity, slabSize int) *EventQueue {
	if slabSize <= 0 {
		slabSize = DefaultBatchSize
	}
	return spsc.New[Event](capacity, slabSize)
}
