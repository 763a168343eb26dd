package fj

import "repro/internal/core"

// ShardedDetectorSink adapts the sharded detector backend
// (core.ShardedDetector) to the event stream with exactly the
// DetectorSink event mapping: the single consumer feeds the fork-join
// structure in canonical order, memory accesses fan out to per-location
// shard workers. Verdicts are byte-identical to DetectorSink over the
// same stream; see core.ShardedDetector for why.
//
// Like the detector it wraps, the sink is single-use: the verdict
// accessors finish it (flush, drain, merge), and events after that
// panic. Frontends that reuse a sink across replays need fresh sinks
// per replay instead.
type ShardedDetectorSink struct {
	D *core.ShardedDetector

	accesses []core.Access // scratch batch reused by EventBatch
}

// NewShardedDetectorSink returns a sink over a fresh sharded detector
// sized for roughly nTasks tasks and locHint locations, with `shards`
// location workers on storage s. queueCap bounds each shard's in-flight
// accesses (<= 0 selects the default).
func NewShardedDetectorSink(nTasks, locHint, shards int, s core.Storage, queueCap int) *ShardedDetectorSink {
	return &ShardedDetectorSink{D: core.NewShardedDetector(nTasks, locHint, shards, s, queueCap, 0)}
}

// Event implements Sink.
func (s *ShardedDetectorSink) Event(e Event) {
	switch e.Kind {
	case EvBegin:
		s.D.Begin(e.T)
	case EvFork:
		s.D.Fork(e.T, e.U)
	case EvJoin:
		s.D.Join(e.T, e.U)
	case EvHalt:
		s.D.Halt(e.T)
	case EvRead:
		s.D.OnRead(e.T, e.Loc)
	case EvWrite:
		s.D.OnWrite(e.T, e.Loc)
	}
}

// EventBatch implements BatchSink: control events are applied one by
// one, and maximal runs of memory accesses go to OnAccessBatch in a
// reused scratch slab.
func (s *ShardedDetectorSink) EventBatch(events []Event) {
	for i := 0; i < len(events); {
		e := events[i]
		if e.Kind != EvRead && e.Kind != EvWrite {
			s.Event(e)
			i++
			continue
		}
		acc := s.accesses[:0]
		for i < len(events) {
			e = events[i]
			if e.Kind != EvRead && e.Kind != EvWrite {
				break
			}
			acc = append(acc, core.Access{
				Loc:   e.Loc,
				T:     int32(e.T),
				Write: e.Kind == EvWrite,
			})
			i++
		}
		s.accesses = acc
		s.D.OnAccessBatch(acc)
	}
}

// Finish flushes and joins the shards; idempotent, implied by the
// accessors below.
func (s *ShardedDetectorSink) Finish() { s.D.Finish() }

// Races exposes the merged race reports in canonical order.
func (s *ShardedDetectorSink) Races() []core.Race { return s.D.Races() }

// Racy reports whether any race was detected.
func (s *ShardedDetectorSink) Racy() bool { return s.D.Racy() }

// Count is the total number of races reported.
func (s *ShardedDetectorSink) Count() int { return s.D.Count() }

// Locations is the number of distinct monitored locations.
func (s *ShardedDetectorSink) Locations() int { return s.D.Locations() }

// MemoryBytes estimates the detector's state size.
func (s *ShardedDetectorSink) MemoryBytes() int { return s.D.MemoryBytes() }

// Stats exposes the merged operation counters (including the shard
// fan-out counters: Shards, ShardEventsMax, CrossShardHandoffs,
// ShardStalls).
func (s *ShardedDetectorSink) Stats() core.Stats { return s.D.Stats() }

// CheckAccounting verifies the Theorem 3/5 accounting on the merged
// counters; see core.ShardedDetector.Stats.
func (s *ShardedDetectorSink) CheckAccounting() error { return s.D.CheckAccounting() }
