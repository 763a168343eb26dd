package fj

import "repro/internal/core"

// DetectorSink adapts the online race detector (internal/core, Figures 6
// and 8) to the event stream: the thread-compressed delayed traversal of
// Section 5 is fed to the Walker, and memory operations pose the
// supremum queries.
//
//	fork(x, y)  → arc (x, y)            (no Walk action; registers y)
//	begin(y)    → loop (y, y)
//	read/write  → loop (t, t) + queries (On-Read / On-Write)
//	join(x, y)  → delayed last-arc (y, x) + loop (x, x)
//	halt(x)     → stop-arc (x, ×)
type DetectorSink struct {
	D *core.Detector
}

// NewDetectorSink returns a sink wrapping a fresh detector sized for
// roughly nTasks tasks, on the default (paged) storage.
func NewDetectorSink(nTasks int) *DetectorSink {
	return &DetectorSink{D: core.NewDetector(nTasks, 64)}
}

// NewDetectorSinkStorage is NewDetectorSink with an explicit per-location
// storage backend (the default paged store or the reference map); both
// report identical races (see the differential tests).
func NewDetectorSinkStorage(nTasks int, s core.Storage) *DetectorSink {
	return NewDetectorSinkSized(nTasks, 64, s)
}

// NewDetectorSinkSized additionally passes a location-count hint, which
// presizes the map storage; the paged store allocates pages on demand.
func NewDetectorSinkSized(nTasks, locHint int, s core.Storage) *DetectorSink {
	return &DetectorSink{D: core.NewDetectorStorage(nTasks, locHint, s)}
}

// Event implements Sink.
func (s *DetectorSink) Event(e Event) {
	w := s.D.W
	switch e.Kind {
	case EvBegin:
		w.Visit(e.T)
	case EvFork:
		// The fork arc (x, y) is not a last-arc: Walk ignores it. Make
		// sure the child is registered before any query mentions it.
		w.Grow(e.U + 1)
	case EvJoin:
		w.LastArc(e.U, e.T) // delayed last-arc (y, x)
		w.Visit(e.T)        // the join operation itself is a step of x
	case EvHalt:
		w.StopArc(e.T)
	case EvRead:
		w.Visit(e.T)
		s.D.OnRead(e.T, e.Loc)
	case EvWrite:
		w.Visit(e.T)
		s.D.OnWrite(e.T, e.Loc)
	}
}

// Races exposes the detector's retained reports.
func (s *DetectorSink) Races() []core.Race { return s.D.Races() }

// Racy reports whether any race was detected.
func (s *DetectorSink) Racy() bool { return s.D.Racy() }

// Stats exposes the detector's operation-count snapshot (memops,
// suprema/union-find counts, storage probes).
func (s *DetectorSink) Stats() core.Stats { return s.D.Stats() }

// CheckAccounting verifies the Theorem 3/5 operation accounting on the
// detector's live counters; see core.Detector.CheckAccounting.
func (s *DetectorSink) CheckAccounting() error { return s.D.CheckAccounting() }
