// Package spom implements an English–Hebrew order-maintenance race
// detector for series-parallel (spawn-sync) programs, after Bender,
// Fineman, Gilbert and Leiserson's SP-order algorithm (SPAA 2004 — the
// paper's reference [3]).
//
// Two order-maintenance lists hold every task segment (the ops between
// consecutive fork/join points of a task): the English list orders
// children before continuations, the Hebrew list continuations before
// children. Segment x precedes segment y in the series-parallel DAG
// exactly when x comes before y in BOTH lists — an online Dushnik–Miller
// 2-realizer, which is precisely the structure the paper generalizes
// from SP graphs to all two-dimensional lattices (Remark 3).
//
// Under the serial fork-first schedule the English order coincides with
// execution order, so a prior access races with the current operation
// iff it does not precede it in the Hebrew list. Per-location state is
// one writer and one reader segment reference — Θ(1), like SP-bags.
//
// Like SP-bags, the detector is meaningful only for spawn-sync traces;
// feeding it left-neighbor-stealing programs is undefined.
package spom

import (
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/om"
)

// segment is one maximal run of operations of a task between fork/join
// boundaries, labeled in both lists.
type segment struct {
	e, h *om.Item
	task fj.ID
}

// Detector is the SP-order detector, consuming fj events of a spawn-sync
// program.
type Detector struct {
	english *om.List
	hebrew  *om.List

	seg      []*segment // current segment per task
	segments int

	locs map[core.Addr]*locState

	// MaxRaces bounds retained reports; 0 keeps all.
	MaxRaces int
	races    []core.Race
	count    int

	// Operation counters: listInserts counts order-maintenance list
	// insertions (two lists × one item per new segment), orderQueries
	// counts precedes evaluations (each up to two Before calls).
	reads, writes uint64
	listInserts   uint64
	orderQueries  uint64
}

type locState struct {
	reader, writer *segment
}

// New returns a detector with the root task's initial segment labeled.
func New() *Detector {
	d := &Detector{
		english: om.New(),
		hebrew:  om.New(),
		locs:    make(map[core.Addr]*locState),
	}
	root := &segment{e: d.english.InsertFirst(), h: d.hebrew.InsertFirst(), task: 0}
	d.seg = []*segment{root}
	d.segments = 1
	d.listInserts = 2
	return d
}

func (d *Detector) current(t fj.ID) *segment {
	for len(d.seg) <= t {
		d.seg = append(d.seg, nil)
	}
	return d.seg[t]
}

func (d *Detector) setSegment(t fj.ID, s *segment) {
	for len(d.seg) <= t {
		d.seg = append(d.seg, nil)
	}
	d.seg[t] = s
	d.segments++
}

// precedes reports x ≺ y in the SP DAG: before in both lists.
func (d *Detector) precedes(x, y *segment) bool {
	d.orderQueries++
	return x == y || (x.e.Before(y.e) && x.h.Before(y.h))
}

func (d *Detector) loc(a core.Addr) *locState {
	st, ok := d.locs[a]
	if !ok {
		st = &locState{}
		d.locs[a] = st
	}
	return st
}

func (d *Detector) report(r core.Race) {
	d.count++
	if d.MaxRaces == 0 || len(d.races) < d.MaxRaces {
		d.races = append(d.races, r)
	}
}

// Event implements fj.Sink.
func (d *Detector) Event(e fj.Event) {
	switch e.Kind {
	case fj.EvBegin:
		// The child's segment was created at the fork.
	case fj.EvFork:
		s := d.current(e.T)
		// English: child then continuation after the forking segment.
		cE := d.english.InsertAfter(s.e)
		kE := d.english.InsertAfter(cE)
		// Hebrew: continuation then child after the forking segment.
		kH := d.hebrew.InsertAfter(s.h)
		cH := d.hebrew.InsertAfter(kH)
		d.listInserts += 4
		d.setSegment(e.U, &segment{e: cE, h: cH, task: e.U})
		d.setSegment(e.T, &segment{e: kE, h: kH, task: e.T})
	case fj.EvJoin:
		// The joined child has halted; by induction its final segment is
		// the Hebrew maximum of its whole subtree, so the continuation
		// goes right after it in Hebrew (and after the joiner's own
		// segment in English).
		p := d.current(e.T)
		c := d.current(e.U)
		kE := d.english.InsertAfter(p.e)
		kH := d.hebrew.InsertAfter(c.h)
		d.listInserts += 2
		d.setSegment(e.T, &segment{e: kE, h: kH, task: e.T})
	case fj.EvHalt:
		// The final segment stays recorded for the parent's join.
	case fj.EvRead:
		d.reads++
		cur := d.current(e.T)
		st := d.loc(e.Loc)
		if st.writer != nil && !d.precedes(st.writer, cur) {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: st.writer.task, Kind: core.WriteRead})
		}
		if st.reader == nil || d.precedes(st.reader, cur) {
			st.reader = cur
		}
	case fj.EvWrite:
		d.writes++
		cur := d.current(e.T)
		st := d.loc(e.Loc)
		if st.writer != nil && !d.precedes(st.writer, cur) {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: st.writer.task, Kind: core.WriteWrite})
		}
		if st.reader != nil && !d.precedes(st.reader, cur) {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: st.reader.task, Kind: core.ReadWrite})
		}
		st.writer = cur
	}
}

// Races returns the retained reports.
func (d *Detector) Races() []core.Race { return d.races }

// Count returns the total number of reports.
func (d *Detector) Count() int { return d.count }

// Racy reports whether any race was detected.
func (d *Detector) Racy() bool { return d.count > 0 }

// Locations returns the number of tracked locations.
func (d *Detector) Locations() int { return len(d.locs) }

// Segments returns the number of task segments labeled so far — the
// structure's Θ(forks + joins) bookkeeping.
func (d *Detector) Segments() int { return d.segments }

// BytesPerLocation reports the constant per-location footprint.
func (d *Detector) BytesPerLocation() int { return 16 } // two pointers

// MemoryBytes estimates total detector state: two list items per segment
// plus per-location pointers.
func (d *Detector) MemoryBytes() int {
	const itemBytes = 40 // tag + three pointers, per list
	const mapEntryOverhead = 16
	return d.segments*2*itemBytes + len(d.locs)*(16+mapEntryOverhead)
}

// Stats reports the detector's operation counts: order-maintenance list
// insertions (Θ(1) amortized each) and precedence queries — the
// 2-realizer analogue of the 2D detector's sup queries.
func (d *Detector) Stats() obs.Stats {
	s := obs.Stats{
		Reads:        d.reads,
		Writes:       d.writes,
		ListInserts:  d.listInserts,
		OrderQueries: d.orderQueries,
		Races:        uint64(d.count),
		Locations:    uint64(len(d.locs)),
	}
	if len(d.locs) > 0 {
		s.BytesPerLocation = float64(d.BytesPerLocation())
	}
	return s
}
