package race2d

import "repro/internal/fj"

// StreamDetector is a detector engine exposed as an event sink: feed it
// an execution's event stream one event at a time (Sink), then read the
// verdict. It is the streaming counterpart of the Detect frontends and
// the contract the concurrent ingestion pipeline drains into; it
// replaces the anonymous interfaces previously returned by New2DSink
// and NewEngineSink.
//
// A StreamDetector is single-consumer: events must arrive from one
// goroutine, in an order some serial fork-first execution could emit
// (see internal/core's ingestion-contract note). Concurrent producers
// belong in front of it, behind a merge stage — that is
// DetectGoroutines' job.
type StreamDetector interface {
	Sink

	// Report assembles a detection Report for the stream consumed so
	// far; Tasks is inferred from the task identifiers seen.
	Report() *Report
	// Stats snapshots the engine's operation counters.
	Stats() Stats
	// Races lists the retained race reports in detection order.
	Races() []Race
	// Count is the total number of races reported (≥ len(Races)).
	Count() int
	// Racy reports whether any race was detected.
	Racy() bool
	// Locations is the number of distinct monitored locations.
	Locations() int
	// MemoryBytes estimates the engine's current state size.
	MemoryBytes() int
}

// NewStreamDetector builds a StreamDetector from options (engine,
// storage); context and queue options do not apply to a bare sink and
// are ignored.
func NewStreamDetector(opts ...Option) (StreamDetector, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return &streamDetector{d: cfg.newDetector(), engine: cfg.engine, maxID: -1}, nil
}

// streamDetector adapts any engine to StreamDetector, tracking the
// largest task identifier seen so Report can state a task count.
type streamDetector struct {
	d      detector
	engine Engine
	maxID  int
}

func (s *streamDetector) observe(e Event) {
	if e.T > s.maxID {
		s.maxID = e.T
	}
	if (e.Kind == fj.EvFork || e.Kind == fj.EvJoin) && e.U > s.maxID {
		s.maxID = e.U
	}
}

// Event implements Sink.
func (s *streamDetector) Event(e Event) {
	s.observe(e)
	s.d.Event(e)
}

func (s *streamDetector) Report() *Report  { return report(s.engine, s.d, s.maxID+1) }
func (s *streamDetector) Stats() Stats     { return s.d.Stats() }
func (s *streamDetector) Races() []Race    { return s.d.Races() }
func (s *streamDetector) Count() int       { return s.d.Count() }
func (s *streamDetector) Racy() bool       { return s.d.Racy() }
func (s *streamDetector) Locations() int   { return s.d.Locations() }
func (s *streamDetector) MemoryBytes() int { return s.d.MemoryBytes() }

// Unwrap returns the underlying engine object, for introspection beyond
// the StreamDetector surface (e.g. per-location byte accounting on the
// 2D sink). The result's type is engine-specific and unstable.
func (s *streamDetector) Unwrap() any { return s.d }

// CheckAccounting verifies the Theorem 3/5 operation accounting when
// the underlying engine supports it (the 2D family); other engines
// trivially pass.
func (s *streamDetector) CheckAccounting() error {
	if ca, ok := s.d.(interface{ CheckAccounting() error }); ok {
		return ca.CheckAccounting()
	}
	return nil
}
