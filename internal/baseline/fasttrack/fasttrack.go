// Package fasttrack implements the FastTrack dynamic race detector
// (Flanagan & Freund, PLDI 2009 — the paper's reference [13]): a
// vector-clock detector whose per-location state is compressed to O(1)
// epochs in the common case, degrading to full Θ(n) vector clocks for
// read-shared locations. It is the strongest Θ(n)-family baseline for the
// space experiments: the paper's 2D detector stays at Θ(1) per location
// even under read sharing, FastTrack does not.
package fasttrack

import (
	"repro/internal/baseline/vc"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
)

// epoch is a (task, clock) pair; the zero value is the empty epoch ⊥.
type epoch struct {
	tid int32
	clk uint32
}

func (e epoch) empty() bool { return e.clk == 0 }

// locState is FastTrack's adaptive per-location state.
type locState struct {
	write  epoch
	read   epoch    // valid when readVC is nil
	readVC vc.Clock // non-nil once reads are shared
}

// Detector is the FastTrack detector, consuming fj events.
type Detector struct {
	clocks []vc.Clock
	locs   map[core.Addr]*locState

	// MaxRaces bounds retained reports; 0 keeps all.
	MaxRaces int
	races    []core.Race
	count    int

	// Operation counters: epochHits counts the O(1) same-epoch fast
	// paths, readShares the epoch→vector promotions that reintroduce
	// the Θ(n) factor, clockJoins/clockEntries the vector-clock work.
	reads, writes uint64
	epochHits     uint64
	readShares    uint64
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
		d.onRead(e.T, e.Loc)
	case fj.EvWrite:
		d.onWrite(e.T, e.Loc)
	}
}

func (d *Detector) onRead(t int, loc core.Addr) {
	d.reads++
	ct := d.clock(t)
	st := d.loc(loc)
	cur := epoch{tid: int32(t), clk: ct.Get(t)}
	// [FT READ SAME EPOCH]
	if st.readVC == nil && st.read == cur {
		d.epochHits++
		return
	}
	// Write-read check.
	if !st.write.empty() && !ct.LeqAt(int(st.write.tid), st.write.clk) {
		d.report(core.Race{Loc: loc, Current: t, Prior: int(st.write.tid), Kind: core.WriteRead})
	}
	switch {
	case st.readVC != nil:
		// [FT READ SHARED]
		st.readVC = st.readVC.Set(t, cur.clk)
	case st.read.empty() || ct.LeqAt(int(st.read.tid), st.read.clk):
		// [FT READ EXCLUSIVE]: previous read happened before us.
		st.read = cur
	default:
		// [FT READ SHARE]: promote to a vector clock.
		d.readShares++
		st.readVC = epochClock(st.read).Join(epochClock(cur))
	}
}

// epochClock renders an epoch as a one-entry clock.
func epochClock(e epoch) vc.Clock {
	c := make(vc.Clock, e.tid+1)
	c[e.tid] = e.clk
	return c
}

func (d *Detector) onWrite(t int, loc core.Addr) {
	d.writes++
	ct := d.clock(t)
	st := d.loc(loc)
	cur := epoch{tid: int32(t), clk: ct.Get(t)}
	// [FT WRITE SAME EPOCH]
	if st.write == cur {
		d.epochHits++
		return
	}
	// Write-write check.
	if !st.write.empty() && !ct.LeqAt(int(st.write.tid), st.write.clk) {
		d.report(core.Race{Loc: loc, Current: t, Prior: int(st.write.tid), Kind: core.WriteWrite})
	}
	// Read-write checks.
	if st.readVC != nil {
		d.clockEntries += uint64(len(st.readVC))
		for u := range st.readVC {
			if v := st.readVC[u]; v > 0 && !ct.LeqAt(u, v) {
				d.report(core.Race{Loc: loc, Current: t, Prior: u, Kind: core.ReadWrite})
			}
		}
		st.readVC = nil // all surviving reads are ordered before this write
		st.read = epoch{}
	} else if !st.read.empty() && !ct.LeqAt(int(st.read.tid), st.read.clk) {
		d.report(core.Race{Loc: loc, Current: t, Prior: int(st.read.tid), Kind: core.ReadWrite})
	}
	st.write = cur
}

// Races returns the retained reports.
func (d *Detector) Races() []core.Race { return d.races }

// Count returns the total number of reports.
func (d *Detector) Count() int { return d.count }

// Racy reports whether any race was detected.
func (d *Detector) Racy() bool { return d.count > 0 }

// Locations returns the number of tracked locations.
func (d *Detector) Locations() int { return len(d.locs) }

// LocationBytes reports total per-location state bytes (epochs plus any
// promoted read vector clocks).
func (d *Detector) LocationBytes() int {
	total := 0
	for _, st := range d.locs {
		total += 16 // two epochs
		total += st.readVC.Bytes()
	}
	return total
}

// MemoryBytes reports total detector state.
func (d *Detector) MemoryBytes() int {
	total := d.LocationBytes()
	for _, c := range d.clocks {
		total += c.Bytes()
	}
	const mapEntryOverhead = 16
	return total + len(d.locs)*mapEntryOverhead
}

// Stats reports the detector's operation counts. EpochHits is the share
// of accesses resolved by the O(1) same-epoch fast path; ReadShares
// counts the epoch→vector promotions where FastTrack's per-location
// state degrades back to Θ(n).
func (d *Detector) Stats() obs.Stats {
	s := obs.Stats{
		Reads:        d.reads,
		Writes:       d.writes,
		EpochHits:    d.epochHits,
		ReadShares:   d.readShares,
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
