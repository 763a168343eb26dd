// Package spbags implements the SP-bags determinacy-race detector of Feng
// and Leiserson (SPAA 1997 — the paper's reference [12]) for spawn-sync
// (series-parallel) programs executed serially, depth-first.
//
// Every procedure F owns two bags: the S-bag (procedures known to be
// serialized before F's current instruction) and the P-bag (procedures
// running logically in parallel with it). The bags are disjoint sets over
// procedure identifiers:
//
//	spawn F:     S(F) ← {F}; P(F) ← ∅
//	F returns:   P(parent) ← P(parent) ∪ S(F) ∪ P(F)
//	sync in F:   S(F) ← S(F) ∪ P(F); P(F) ← ∅
//	read l by F:  if writer(l) ∈ some P-bag → race
//	              if reader(l) ∈ some S-bag → reader(l) ← F
//	write l by F: if writer(l) ∈ P-bag or reader(l) ∈ P-bag → race
//	              writer(l) ← F
//
// SP-bags is defined only for spawn-sync executions; feeding it the events
// of a non-SP structured fork-join program (left-neighbor stealing) gives
// meaningless results, which experiment E9 relies on the 2D detector to
// avoid. The adapter maps fj events of spawn-sync programs: fork = spawn,
// halt = return (serial schedule), join = sync step (spawn-sync joins all
// outstanding children consecutively, so folding the whole P-bag at each
// join is equivalent to the one-shot sync).
package spbags

import (
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/unionfind"
)

// bag labels: procedure p's S-bag is labeled 2p, its P-bag 2p+1.
func sLabel(p int) int { return 2 * p }
func pLabel(p int) int { return 2*p + 1 }

func isPBag(label int) bool { return label%2 == 1 }

type locState struct {
	reader, writer int32 // procedure ids, -1 if none
}

// Detector is the SP-bags detector consuming fj events of a spawn-sync
// program.
type Detector struct {
	uf     *unionfind.Forest
	parent []int32 // procedure tree
	// pRep[p] is some member element of p's P-bag, or -1 when empty;
	// union-find merges leave it a valid member.
	pRep []int32

	locs map[core.Addr]*locState

	// MaxRaces bounds retained reports; 0 keeps all.
	MaxRaces int
	races    []core.Race
	count    int

	reads, writes uint64
}

// New returns a detector ready for the root procedure (id 0).
func New() *Detector {
	d := &Detector{
		uf:   unionfind.New(0),
		locs: make(map[core.Addr]*locState),
	}
	d.addProc(0, -1)
	return d
}

func (d *Detector) addProc(p, parent int) {
	for d.uf.Len() <= p {
		idx := d.uf.Add()
		d.uf.Relabel(idx, sLabel(idx)) // fresh S-bag {p} labeled 2p
	}
	for len(d.parent) <= p {
		d.parent = append(d.parent, -1)
		d.pRep = append(d.pRep, -1)
	}
	d.parent[p] = int32(parent)
}

func (d *Detector) loc(a core.Addr) *locState {
	st, ok := d.locs[a]
	if !ok {
		st = &locState{reader: -1, writer: -1}
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

// inPBag reports whether procedure q currently sits in some P-bag.
func (d *Detector) inPBag(q int32) bool {
	if q < 0 {
		return false
	}
	return isPBag(d.uf.Find(int(q)))
}

// inSBag reports whether procedure q currently sits in some S-bag.
func (d *Detector) inSBag(q int32) bool {
	if q < 0 {
		return false
	}
	return !isPBag(d.uf.Find(int(q)))
}

// Event implements fj.Sink.
func (d *Detector) Event(e fj.Event) {
	switch e.Kind {
	case fj.EvBegin:
		// Procedure state created at fork (or New for the root).
	case fj.EvFork:
		d.addProc(e.U, e.T)
	case fj.EvHalt:
		// F returns: P(parent) ∪= S(F) ∪ P(F).
		p := d.parent[e.T]
		if p < 0 {
			return // root's halt
		}
		// Merge F's P-bag (if any) into F's S-bag first, then hand the
		// union to the parent's P-bag.
		if d.pRep[e.T] >= 0 {
			d.uf.Union(e.T, int(d.pRep[e.T]))
			d.pRep[e.T] = -1
		}
		if d.pRep[p] >= 0 {
			d.uf.Union(int(d.pRep[p]), e.T)
		} else {
			d.pRep[p] = int32(e.T)
			d.uf.Relabel(e.T, pLabel(int(p)))
		}
	case fj.EvJoin:
		// sync step in T: S(T) ∪= P(T); P(T) ← ∅.
		if d.pRep[e.T] >= 0 {
			d.uf.Union(e.T, int(d.pRep[e.T]))
			d.pRep[e.T] = -1
		}
		d.uf.Relabel(e.T, sLabel(e.T))
	case fj.EvRead:
		d.reads++
		st := d.loc(e.Loc)
		if d.inPBag(st.writer) {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: int(st.writer), Kind: core.WriteRead})
		}
		if st.reader < 0 || d.inSBag(st.reader) {
			st.reader = int32(e.T)
		}
	case fj.EvWrite:
		d.writes++
		st := d.loc(e.Loc)
		if d.inPBag(st.writer) {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: int(st.writer), Kind: core.WriteWrite})
		}
		if d.inPBag(st.reader) {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: int(st.reader), Kind: core.ReadWrite})
		}
		st.writer = int32(e.T)
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

// BytesPerLocation reports the constant per-location footprint (two
// procedure ids) — SP-bags achieves the paper's Θ(1) bound on SP graphs.
func (d *Detector) BytesPerLocation() int { return 8 }

// MemoryBytes estimates total detector state.
func (d *Detector) MemoryBytes() int {
	const mapEntryOverhead = 16
	return d.uf.MemoryBytes() + len(d.parent)*8 + len(d.locs)*(8+mapEntryOverhead)
}

// Stats reports the detector's operation counts. The bags are
// union-find sets, so the bag membership tests and merges surface as
// Finds/Unions/PathSteps from the underlying forest — directly
// comparable with the 2D detector's union-find column.
func (d *Detector) Stats() obs.Stats {
	s := d.uf.Stats()
	s.Reads = d.reads
	s.Writes = d.writes
	s.Races = uint64(d.count)
	s.Locations = uint64(len(d.locs))
	if len(d.locs) > 0 {
		s.BytesPerLocation = float64(d.BytesPerLocation())
	}
	return s
}
