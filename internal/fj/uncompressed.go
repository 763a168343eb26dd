package fj

import "repro/internal/core"

// UncompressedSink drives the race detector at *operation* granularity:
// every event introduces a fresh walker vertex instead of reusing one
// identifier per thread. This is the algorithm "as currently formulated"
// in Section 4 before thread compression — sound and precise, but its
// bookkeeping grows with the number of executed operations rather than
// the number of threads. It exists as the ablation counterpart of
// DetectorSink for the Theorem 5 experiments: the two must report the
// same races while their walker footprints diverge as Θ(ops) vs
// Θ(threads).
//
// Vertex construction mirrors GraphBuilder: consecutive operations of a
// task are chained by last-arcs (each interior vertex's rightmost arc is
// its continuation), a join adds the joined task's delayed last-arc, and
// a halt emits the stop-arc of the task's final vertex.
type UncompressedSink struct {
	D *core.Detector

	last    []int      // latest vertex per task, -1 before begin
	pending map[ID]int // child task -> fork vertex (no walker action)
	finalOf map[ID]int // halted task -> final vertex
	next    int        // next fresh vertex id
}

// NewUncompressedSink returns an empty operation-granularity detector.
func NewUncompressedSink() *UncompressedSink {
	return &UncompressedSink{
		D:       core.NewDetector(0, 64),
		pending: map[ID]int{},
		finalOf: map[ID]int{},
	}
}

func (s *UncompressedSink) vertex() int {
	v := s.next
	s.next++
	return v
}

func (s *UncompressedSink) lastOf(t ID) int {
	for len(s.last) <= t {
		s.last = append(s.last, -1)
	}
	return s.last[t]
}

// step appends a fresh vertex to t's chain: the previous vertex's
// continuation arc is its last-arc, so the walker unions them.
func (s *UncompressedSink) step(t ID) int {
	prev := s.lastOf(t)
	v := s.vertex()
	if prev >= 0 {
		s.D.W.LastArc(prev, v)
	}
	s.D.W.Visit(v)
	s.last[t] = v
	return v
}

// Event implements Sink.
func (s *UncompressedSink) Event(e Event) {
	switch e.Kind {
	case EvBegin:
		v := s.vertex()
		if fv, ok := s.pending[e.T]; ok {
			// The fork arc (fv, v) is not a last-arc: no walker action.
			delete(s.pending, e.T)
			_ = fv
		}
		s.lastOf(e.T)
		s.D.W.Visit(v)
		s.last[e.T] = v
	case EvFork:
		fv := s.step(e.T)
		s.pending[e.U] = fv
	case EvJoin:
		jv := s.step(e.T)
		if final, ok := s.finalOf[e.U]; ok {
			s.D.W.LastArc(final, jv)
			s.D.W.Visit(jv) // re-visit after the delayed arc lands
		}
	case EvHalt:
		final := s.lastOf(e.T)
		if final >= 0 {
			s.D.W.StopArc(final)
			s.finalOf[e.T] = final
		}
	case EvRead:
		v := s.step(e.T)
		s.D.OnRead(v, e.Loc)
	case EvWrite:
		v := s.step(e.T)
		s.D.OnWrite(v, e.Loc)
	}
}

// Races exposes the detector's retained reports.
func (s *UncompressedSink) Races() []core.Race { return s.D.Races() }

// Racy reports whether any race was detected.
func (s *UncompressedSink) Racy() bool { return s.D.Racy() }
