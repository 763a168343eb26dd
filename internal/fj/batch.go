package fj

// Batched event delivery. A BatchSink accepts whole event runs in one
// call; the wire client and the baseline engines implement it. The 2D
// detector takes one event at a time (Sink), and Deliver bridges the
// two.

// DefaultBatchSize is the run length the trace decoder and replayer
// deliver in, and the default producer-side slab of the event queues:
// large enough to amortize dispatch, small enough to stay resident in
// L1.
const DefaultBatchSize = 256

// BatchSink is a Sink that can also ingest events in batches. The
// batch slice is only valid for the duration of the call; implementations
// must not retain it.
type BatchSink interface {
	Sink
	EventBatch([]Event)
}

// Deliver feeds a batch to dst with a single dispatch when dst supports
// the batched protocol, falling back to one Event call per element. It
// is the delivery primitive shared by the trace replayers and sink
// wrappers outside this package.
func Deliver(dst Sink, events []Event) { deliver(dst, events) }

// deliver feeds a batch to dst with a single dispatch when dst supports
// it, falling back to the one-by-one protocol.
func deliver(dst Sink, events []Event) {
	if bs, ok := dst.(BatchSink); ok {
		bs.EventBatch(events)
		return
	}
	for i := range events {
		dst.Event(events[i])
	}
}

// EventBatch implements BatchSink on MultiSink, fanning a batch out with
// one dispatch per destination instead of one per event.
func (m MultiSink) EventBatch(events []Event) {
	for _, s := range m {
		deliver(s, events)
	}
}

// EventBatch implements BatchSink on Trace: one append per batch.
func (t *Trace) EventBatch(events []Event) {
	t.Events = append(t.Events, events...)
}

// ReplayBatches feeds the recorded events to s in runs of
// DefaultBatchSize, using s's batched path when available.
func (t *Trace) ReplayBatches(s Sink) {
	for i := 0; i < len(t.Events); i += DefaultBatchSize {
		deliver(s, t.Events[i:min(i+DefaultBatchSize, len(t.Events))])
	}
}
