package core

import "fmt"

// Addr identifies a monitored memory location.
type Addr uint64

// AccessKind distinguishes the conflicting pair of a race report.
type AccessKind uint8

const (
	// ReadWrite: the current operation writes, a prior read races with it.
	ReadWrite AccessKind = iota
	// WriteWrite: the current operation writes, a prior write races.
	WriteWrite
	// WriteRead: the current operation reads, a prior write races.
	WriteRead
)

func (k AccessKind) String() string {
	switch k {
	case ReadWrite:
		return "read-write"
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// Race is one race report. Current is the vertex (or thread, after
// compression) executing the racy access; Prior is the representative
// returned by Sup for the conflicting earlier accesses — the root of the
// last-arc tree standing in for their supremum, not necessarily an access
// to the same location itself (see Section 4: "sup K need not even access
// the same memory location").
type Race struct {
	Loc     Addr
	Current int
	Prior   int
	Kind    AccessKind
}

func (r Race) String() string {
	return fmt.Sprintf("%s race on %#x: current %d vs prior rooted at %d", r.Kind, uint64(r.Loc), r.Current, r.Prior)
}

// locState is the per-location detector state: the accumulated suprema of
// reads and writes (Figure 6's R[loc] and W[loc]). Exactly two vertex
// identifiers — the Θ(1) space per tracked location of Theorem 5.
type locState struct {
	read, write int32
}

const noAccess int32 = -1

// Storage selects the per-location state backend. All backends hold the
// identical two identifiers per location (Theorem 5's Θ(1)) and report
// identical races; they differ only in constant factors, and the
// differential tests hold them to that.
type Storage uint8

const (
	// StorageOpenAddr is the default: the paged store (table.go) —
	// 64-location pages found through an open-addressing directory,
	// allocation-free once a location's page exists.
	StorageOpenAddr Storage = iota
	// StorageMap is the reference map[Addr]*locState backend.
	StorageMap
)

func (s Storage) String() string {
	switch s {
	case StorageOpenAddr:
		return "openaddr"
	case StorageMap:
		return "map"
	}
	return fmt.Sprintf("Storage(%d)", uint8(s))
}

// Detector is the online race detector of Figure 6 driven by the suprema
// walker of Figure 8. Feed it the traversal of the executing program
// (loops, last-arcs and stop-arcs — typically the thread-compressed stream
// emitted by a fork-join runtime) and call OnRead/OnWrite at every memory
// operation of the current vertex: one supremum query per operation.
type Detector struct {
	W *Walker

	table *locTable          // non-nil for the default paged storage
	state map[Addr]*locState // non-nil for map storage

	// MaxRaces bounds the retained race reports (the count keeps
	// increasing); 0 means keep everything. The paper's precision
	// guarantee covers the first report, so retaining a bounded prefix
	// loses nothing. Set it before the first report to pre-size the
	// retention buffer in one allocation.
	MaxRaces int

	races []Race
	count int

	// Operation counters (plain uint64s on the serial hot path);
	// Stats() snapshots them together with the walker and storage
	// counters.
	reads     uint64
	writes    uint64
	mapProbes uint64 // map-storage lookups (the paged store counts internally)
}

// NewDetector returns a detector expecting about n vertices/threads
// (growable) and locHint distinct locations (hint only), using the
// default paged storage for per-location state.
func NewDetector(n, locHint int) *Detector {
	return NewDetectorStorage(n, locHint, StorageOpenAddr)
}

// NewDetectorStorage returns a detector with an explicit per-location
// storage backend; see Storage for the choices. locHint presizes only
// the map: the paged store allocates pages as locations arrive.
func NewDetectorStorage(n, locHint int, s Storage) *Detector {
	d := &Detector{W: NewWalker(n)}
	if s == StorageMap {
		d.state = make(map[Addr]*locState, locHint)
	} else {
		d.table = newLocTable()
	}
	return d
}

// Storage reports the selected per-location storage backend.
func (d *Detector) Storage() Storage {
	if d.state != nil {
		return StorageMap
	}
	return StorageOpenAddr
}

// mapLoc returns the map storage's state slot for a. OnRead and OnWrite
// take a slot exactly once per access, from the paged store's get or
// from mapLoc, and reuse it between their conflict checks and the
// supremum update, so each memory operation costs a single lookup. The
// pointer is valid until the next lookup (directory doubling and page
// promotion happen before it is taken, never after). The branch is
// written out in both, so the paged store's page-cache hit inlines.
func (d *Detector) mapLoc(a Addr) *locState {
	d.mapProbes++
	st, ok := d.state[a]
	if !ok {
		st = &locState{read: noAccess, write: noAccess}
		d.state[a] = st
	}
	return st
}

func (d *Detector) report(r Race) {
	d.count++
	if d.races == nil && d.MaxRaces > 0 {
		d.races = make([]Race, 0, d.MaxRaces)
	}
	if d.MaxRaces == 0 || len(d.races) < d.MaxRaces {
		d.races = append(d.races, r)
	}
}

// OnRead handles a read of loc by the current vertex t (Figure 6 On-Read).
// A read conflicts with prior writes only (K = W, Section 2.3); the
// supplied text's Figure 6 comparing against R is an extraction artifact —
// read-read sharing is never a race.
//
// Accesses whose recorded supremum is t itself skip the query outright:
// sup{t, t} = t can neither race nor change the accumulated state. This
// is the common repeated-access-by-one-task case in real traces.
func (d *Detector) OnRead(t int, loc Addr) {
	d.reads++
	var st *locState
	if d.table != nil {
		st = d.table.get(loc)
	} else {
		st = d.mapLoc(loc)
	}
	tt := int32(t)
	if w := st.write; w != noAccess && w != tt {
		if s := d.W.Sup(int(w), t); s != t {
			d.report(Race{Loc: loc, Current: t, Prior: s, Kind: WriteRead})
		}
	}
	if r := st.read; r == noAccess || r == tt {
		st.read = tt
	} else {
		st.read = int32(d.W.Sup(int(r), t))
	}
}

// OnWrite handles a write of loc by the current vertex t (Figure 6
// On-Write): it conflicts with prior reads and prior writes (K = R ∪ W).
// The write-write check and the write-supremum update pose the same
// query Sup(W[loc], t), so one union-find lookup serves both.
func (d *Detector) OnWrite(t int, loc Addr) {
	d.writes++
	var st *locState
	if d.table != nil {
		st = d.table.get(loc)
	} else {
		st = d.mapLoc(loc)
	}
	tt := int32(t)
	if r := st.read; r != noAccess && r != tt {
		if s := d.W.Sup(int(r), t); s != t {
			d.report(Race{Loc: loc, Current: t, Prior: s, Kind: ReadWrite})
		}
	}
	if w := st.write; w == noAccess || w == tt {
		st.write = tt
	} else {
		s := d.W.Sup(int(w), t)
		if s != t {
			d.report(Race{Loc: loc, Current: t, Prior: s, Kind: WriteWrite})
		}
		st.write = int32(s)
	}
}

// Races returns the retained race reports (all of them when MaxRaces is 0).
func (d *Detector) Races() []Race { return d.races }

// Count returns the total number of race reports, including any dropped
// beyond MaxRaces.
func (d *Detector) Count() int { return d.count }

// Racy reports whether any race has been detected so far.
func (d *Detector) Racy() bool { return d.count > 0 }

// Locations returns the number of tracked memory locations.
func (d *Detector) Locations() int {
	if d.table != nil {
		return d.table.locations()
	}
	return len(d.state)
}

// BytesPerLocation reports the detector's per-location state size in
// bytes: constant by construction (Theorem 5). Map bucket overhead is
// excluded; it is itself constant per entry.
func (d *Detector) BytesPerLocation() int { return 8 }

// MemoryBytes estimates the detector's total state: walker (Θ(1) per
// thread) plus per-location records (Θ(1) per location; the paged store
// counts its directory and whole pages).
func (d *Detector) MemoryBytes() int {
	if d.table != nil {
		return d.W.MemoryBytes() + d.table.bytes()
	}
	const mapEntryOverhead = 16 // key + pointer, amortized bucket space
	return d.W.MemoryBytes() + len(d.state)*(8+mapEntryOverhead)
}
