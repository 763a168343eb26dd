// Package naive implements the paper's Section 2.3 "naive algorithm" as
// a real online detector: for every location it tracks the complete sets
// R and W of prior reading and writing accesses, checking the current
// operation against every element. Ordering is decided with vector
// clocks, so the detector is sound and precise — but per-location space
// is Θ(accesses) and per-operation time is Θ(|R ∪ W|), which is exactly
// what the paper calls "prohibitively expensive both in space and time"
// and what the suprema representation eliminates.
//
// It exists as the third point on the space axis of experiment E4:
// naive Θ(accesses) > vector clocks Θ(tasks) > 2D detector Θ(1).
package naive

import (
	"repro/internal/baseline/vc"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
)

// access is one recorded operation: the task and its clock at the time.
type access struct {
	task  int
	clock uint32
}

type locState struct {
	reads  []access
	writes []access
}

// Detector is the naive R/W-set detector, consuming fj events.
type Detector struct {
	clocks []vc.Clock
	locs   map[core.Addr]*locState

	// MaxRaces bounds retained reports; 0 keeps all.
	MaxRaces int
	races    []core.Race
	count    int

	// setScans counts R/W-set elements examined — the Θ(|R ∪ W|)
	// per-operation factor the suprema representation eliminates.
	reads, writes uint64
	setScans      uint64
	clockJoins    uint64
	clockEntries  uint64
}

// New returns an empty detector.
func New() *Detector {
	return &Detector{locs: make(map[core.Addr]*locState)}
}

func (d *Detector) clock(t int) vc.Clock {
	for len(d.clocks) <= t {
		d.clocks = append(d.clocks, nil)
	}
	if d.clocks[t] == nil {
		d.clocks[t] = vc.Clock{}.Set(t, 1)
	}
	return d.clocks[t]
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
		d.clock(e.T)
	case fj.EvFork:
		parent := d.clock(e.T)
		child := parent.Copy().Set(e.U, 1)
		for len(d.clocks) <= e.U {
			d.clocks = append(d.clocks, nil)
		}
		d.clocks[e.U] = child
		d.clocks[e.T] = parent.Set(e.T, parent.Get(e.T)+1)
	case fj.EvJoin:
		other := d.clock(e.U)
		d.clockJoins++
		d.clockEntries += uint64(len(other))
		merged := d.clock(e.T).Join(other)
		d.clocks[e.T] = merged.Set(e.T, merged.Get(e.T)+1)
	case fj.EvHalt:
	case fj.EvRead:
		d.reads++
		ct := d.clock(e.T)
		st := d.loc(e.Loc)
		// K = W: check every prior write.
		for _, w := range st.writes {
			d.setScans++
			if !ct.LeqAt(w.task, w.clock) {
				d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: w.task, Kind: core.WriteRead})
				break
			}
		}
		st.reads = append(st.reads, access{task: e.T, clock: ct.Get(e.T)})
	case fj.EvWrite:
		d.writes++
		ct := d.clock(e.T)
		st := d.loc(e.Loc)
		// K = R ∪ W: check everything.
		for _, r := range st.reads {
			d.setScans++
			if !ct.LeqAt(r.task, r.clock) {
				d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: r.task, Kind: core.ReadWrite})
				break
			}
		}
		for _, w := range st.writes {
			d.setScans++
			if !ct.LeqAt(w.task, w.clock) {
				d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: w.task, Kind: core.WriteWrite})
				break
			}
		}
		st.writes = append(st.writes, access{task: e.T, clock: ct.Get(e.T)})
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

// LocationBytes reports the total bytes of per-location access sets —
// Θ(accesses), the quantity the paper's representation collapses to Θ(1).
func (d *Detector) LocationBytes() int {
	total := 0
	for _, st := range d.locs {
		total += (len(st.reads) + len(st.writes)) * 8
	}
	return total
}

// MemoryBytes estimates total detector state.
func (d *Detector) MemoryBytes() int {
	total := d.LocationBytes()
	for _, c := range d.clocks {
		total += c.Bytes()
	}
	const mapEntryOverhead = 16
	return total + len(d.locs)*mapEntryOverhead
}

// Stats reports the detector's operation counts. SetScans is the
// defining cost: one increment per prior access examined, growing with
// history where every other engine's per-operation work stays bounded.
func (d *Detector) Stats() obs.Stats {
	s := obs.Stats{
		Reads:        d.reads,
		Writes:       d.writes,
		SetScans:     d.setScans,
		ClockJoins:   d.clockJoins,
		ClockEntries: d.clockEntries,
		Races:        uint64(d.count),
		Locations:    uint64(len(d.locs)),
	}
	if n := len(d.locs); n > 0 {
		s.BytesPerLocation = float64(d.LocationBytes()) / float64(n)
	}
	return s
}
