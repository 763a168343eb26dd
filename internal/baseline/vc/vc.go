// Package vc implements the classic vector-clock (DJIT⁺-style) dynamic
// race detector: the "state of the art for unstructured parallelism" the
// paper contrasts with, whose memory usage is Θ(n) per monitored location
// in the number of tasks. It consumes the same event stream as the 2D
// detector, deriving happens-before from fork and join edges.
package vc

import (
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
)

// Clock is a vector clock: entry u holds the latest known logical clock of
// task u. Clocks grow lazily; missing entries are zero.
type Clock []uint32

// Get returns entry u.
func (c Clock) Get(u int) uint32 {
	if u < len(c) {
		return c[u]
	}
	return 0
}

// Set assigns entry u, growing as needed, and returns the (possibly
// reallocated) clock.
func (c Clock) Set(u int, v uint32) Clock {
	for len(c) <= u {
		c = append(c, 0)
	}
	c[u] = v
	return c
}

// Join merges other into c pointwise (least upper bound), returning c.
func (c Clock) Join(other Clock) Clock {
	for len(c) < len(other) {
		c = append(c, 0)
	}
	for u, v := range other {
		if v > c[u] {
			c[u] = v
		}
	}
	return c
}

// LeqAt reports whether clock value v of task u happened before clock c:
// v ≤ c[u].
func (c Clock) LeqAt(u int, v uint32) bool { return v <= c.Get(u) }

// Copy returns an independent copy.
func (c Clock) Copy() Clock {
	out := make(Clock, len(c))
	copy(out, c)
	return out
}

// Bytes reports the heap size of the clock's entries.
func (c Clock) Bytes() int { return len(c) * 4 }

// locState holds the per-location read and write vector clocks: entry u is
// the clock of task u's latest read (resp. write) of the location. This is
// the Θ(n)-per-location state the paper's detector eliminates.
type locState struct {
	reads  Clock
	writes Clock
}

// Detector is the vector-clock race detector, consuming fj events.
type Detector struct {
	clocks []Clock
	locs   map[core.Addr]*locState

	// MaxRaces bounds retained reports; 0 keeps all.
	MaxRaces int
	races    []core.Race
	count    int

	// Operation counters: clockJoins counts pointwise merges,
	// clockEntries counts clock entries touched by merges, copies and
	// race checks — the Θ(n)-per-operation factor the 2D detector's
	// union-find counters replace with Θ(α).
	reads, writes uint64
	clockJoins    uint64
	clockEntries  uint64
}

// New returns an empty detector.
func New() *Detector {
	return &Detector{locs: make(map[core.Addr]*locState)}
}

func (d *Detector) clock(t int) Clock {
	for len(d.clocks) <= t {
		d.clocks = append(d.clocks, nil)
	}
	if d.clocks[t] == nil {
		d.clocks[t] = Clock{}.Set(t, 1)
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

// raceWith returns the first task whose recorded access in acc did not
// happen before ct, or -1.
func raceWith(acc Clock, ct Clock) int {
	for u, v := range acc {
		if v > 0 && v > ct.Get(u) {
			return u
		}
	}
	return -1
}

// Event implements fj.Sink.
func (d *Detector) Event(e fj.Event) {
	switch e.Kind {
	case fj.EvBegin:
		d.clock(e.T)
	case fj.EvFork:
		parent := d.clock(e.T)
		child := parent.Copy().Set(e.U, 1)
		d.clockEntries += uint64(len(parent))
		for len(d.clocks) <= e.U {
			d.clocks = append(d.clocks, nil)
		}
		d.clocks[e.U] = child
		parent[e.T]++
	case fj.EvJoin:
		other := d.clock(e.U)
		d.clockJoins++
		d.clockEntries += uint64(len(other))
		joiner := d.clock(e.T).Join(other)
		joiner[e.T]++
		d.clocks[e.T] = joiner
	case fj.EvHalt:
		// No clock action: the final clock is consumed at join time.
	case fj.EvRead:
		d.reads++
		ct := d.clock(e.T)
		st := d.loc(e.Loc)
		d.clockEntries += uint64(len(st.writes))
		if u := raceWith(st.writes, ct); u >= 0 {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: u, Kind: core.WriteRead})
		}
		st.reads = st.reads.Set(e.T, ct.Get(e.T))
	case fj.EvWrite:
		d.writes++
		ct := d.clock(e.T)
		st := d.loc(e.Loc)
		d.clockEntries += uint64(len(st.reads) + len(st.writes))
		if u := raceWith(st.reads, ct); u >= 0 {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: u, Kind: core.ReadWrite})
		}
		if u := raceWith(st.writes, ct); u >= 0 {
			d.report(core.Race{Loc: e.Loc, Current: e.T, Prior: u, Kind: core.WriteWrite})
		}
		st.writes = st.writes.Set(e.T, ct.Get(e.T))
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

// LocationBytes reports the total bytes held by per-location state — the
// quantity that grows as Θ(n) per location under sharing.
func (d *Detector) LocationBytes() int {
	total := 0
	for _, st := range d.locs {
		total += st.reads.Bytes() + st.writes.Bytes()
	}
	return total
}

// MemoryBytes reports total detector state: task clocks plus location
// state.
func (d *Detector) MemoryBytes() int {
	total := d.LocationBytes()
	for _, c := range d.clocks {
		total += c.Bytes()
	}
	const mapEntryOverhead = 16
	return total + len(d.locs)*mapEntryOverhead
}

// Stats reports the detector's operation counts: the clock merges and
// the Θ(n) clock-entry scans race checking costs here, next to the
// memop and race totals, so cross-engine comparisons in bench2d report
// work done and not just wall time.
func (d *Detector) Stats() obs.Stats {
	s := obs.Stats{
		Reads:        d.reads,
		Writes:       d.writes,
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
