package core

import "math/bits"

// Paged storage for per-location detector state.
//
// The reference map storage (`map[Addr]*locState`) costs one heap
// allocation per tracked location plus a hash-bucket walk and a pointer
// chase on every access; the constant factors drown the Θ(1)-per-location
// asymptotics of Theorem 5 in measurements. This table is the two-level
// shadow memory real detectors use (FastTrack, TSan): the id space is cut
// into pages of 64 consecutive locations, each page holds its locations'
// two identifiers by value (512 bytes, no address stored per entry), and
// a page is found by its key a>>6 in a small directory. It is the
// detector's default storage; the map remains behind the Storage option
// as the reference the differential tests compare against.
//
// The directory is open-addressing: Fibonacci hashing on the page key,
// linear probing, load at most 3/4, and whole doubling. Every frontend in
// this repository numbers locations densely, so the directory holds one
// entry per 64 locations and a doubling moves little. A one-entry page cache serves consecutive accesses
// to one page without touching the directory, which is where most of the
// benchmark's accesses go: the directory is probed 0.5 times per memory
// operation on its pipeline trace and once on its fork-join trace
// (EXPERIMENTS E11c).
//
// Sparse ids would waste a page each, so a directory entry holds the
// first location of its page inline and promotes to a real page only when
// a second location of that page is touched. Uniform 64-bit ids then cost
// one directory entry each; the worst case is two locations per page.
// Locations are never deleted (the detector only accumulates them).

const (
	// pageBits is log2 of the locations per page.
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	// dirMinSize is the initial directory size (power of two).
	dirMinSize = 16
	// tableFib is 2^64 divided by the golden ratio, the Fibonacci
	// hashing multiplier.
	tableFib = 0x9E3779B97F4A7C15
)

// locPage holds the state of the 64 locations key<<6 … key<<6|63.
type locPage [pageSize]locState

// dirEntry is one directory slot. A used slot's addr is the first
// location touched on its page, so addr>>pageBits is the page key. With
// page nil the slot is inline: st is the state of addr, the only
// location of the page touched so far. A slot with page nil and addr 0 is
// empty; page 0 (ids 0–63) is therefore always promoted at once, so no
// inline slot has addr 0.
type dirEntry struct {
	addr Addr
	page *locPage
	st   locState
}

func (e *dirEntry) empty() bool { return e.page == nil && e.addr == 0 }

// locTable is the paged store: a directory of pages from Addr to
// locState with a one-entry page cache.
type locTable struct {
	dir   []dirEntry
	mask  uint64
	shift uint // 64 - log2(len(dir)): Fibonacci hash to slot
	used  int  // non-empty directory slots
	pages int  // promoted pages

	// The page cache: the page of the last paged hit. lastKey starts
	// at ^0, which no page key reaches (keys are below 2^58).
	lastKey uint64
	last    *locPage

	// Operation counters (plain uint64s, serial structure): probes
	// counts directory slots examined by lookups that missed the page
	// cache, grows counts directory doublings and rehashSteps the
	// entries those doublings re-placed. They expose the table's
	// constant factors next to the union-find counts in core.Stats.
	probes      uint64
	rehashSteps uint64
	grows       uint64
}

// newLocTable returns an empty table. Pages are allocated on first use,
// so there is nothing to presize.
func newLocTable() *locTable {
	return &locTable{
		dir:     make([]dirEntry, dirMinSize),
		mask:    dirMinSize - 1,
		shift:   dirShift(dirMinSize),
		lastKey: ^uint64(0),
	}
}

// dirShift returns the shift that maps a 64-bit Fibonacci product to a
// slot of a directory with size slots (a power of two).
func dirShift(size int) uint { return 64 - uint(bits.TrailingZeros(uint(size))) }

// get returns the state slot for a, fresh ({noAccess, noAccess}) on
// first touch. The returned pointer stays valid until the next call to
// get: directory doubling and page promotion run before it is taken,
// never after. A page-cache hit is small enough to inline into the
// detector's OnRead/OnWrite.
func (t *locTable) get(a Addr) *locState {
	if uint64(a)>>pageBits == t.lastKey {
		return &t.last[a&pageMask]
	}
	return t.lookup(a)
}

// lookup finds a's slot through the directory, inserting or promoting
// its page's entry as needed, and caches a's page when it has one.
func (t *locTable) lookup(a Addr) *locState {
	key := uint64(a) >> pageBits
	i := (key * tableFib) >> t.shift
	probed := uint64(0) // accumulated locally; one store on exit keeps the loop tight
	for {
		probed++
		e := &t.dir[i]
		if e.empty() {
			t.probes += probed
			return t.insert(e, a)
		}
		if uint64(e.addr)>>pageBits == key {
			t.probes += probed
			if e.page == nil {
				if e.addr == a {
					return &e.st
				}
				t.promote(e)
			}
			t.lastKey, t.last = key, e.page
			return &e.page[a&pageMask]
		}
		i = (i + 1) & t.mask
	}
}

// insert claims the empty slot e for a's page, first doubling the
// directory if that would pass 3/4 load.
func (t *locTable) insert(e *dirEntry, a Addr) *locState {
	if (t.used+1)*4 > len(t.dir)*3 {
		t.grow()
		e = t.free(uint64(a) >> pageBits)
	}
	t.used++
	*e = dirEntry{addr: a, st: locState{read: noAccess, write: noAccess}}
	if a>>pageBits != 0 {
		return &e.st
	}
	// Page 0 holds the empty-slot marker's address, so it is never
	// inline.
	t.promote(e)
	t.lastKey, t.last = 0, e.page
	return &e.page[a&pageMask]
}

// promote gives the inline entry e a page holding its location's state.
func (t *locTable) promote(e *dirEntry) {
	p := new(locPage)
	for i := range p {
		p[i] = locState{read: noAccess, write: noAccess}
	}
	p[e.addr&pageMask] = e.st
	e.page = p
	t.pages++
}

// free returns the first empty slot on key's probe path; the caller
// knows key is absent.
func (t *locTable) free(key uint64) *dirEntry {
	i := (key * tableFib) >> t.shift
	for {
		e := &t.dir[i]
		if e.empty() {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the directory and re-places every entry. Pages do not
// move, so the page cache stays valid.
func (t *locTable) grow() {
	old := t.dir
	t.dir = make([]dirEntry, 2*len(old))
	t.mask = uint64(len(t.dir) - 1)
	t.shift = dirShift(len(t.dir))
	t.grows++
	for i := range old {
		if e := &old[i]; !e.empty() {
			*t.free(uint64(e.addr) >> pageBits) = *e
			t.rehashSteps++
		}
	}
}

// locations returns the number of distinct locations whose slot holds an
// access. Every caller (the detector's OnRead/OnWrite) stores an access
// into each slot get returns, so that is every location ever touched.
// It scans the store, which is cheap next to the accesses that filled
// it: callers ask once per Report.
func (t *locTable) locations() int {
	n := 0
	for i := range t.dir {
		e := &t.dir[i]
		switch {
		case e.page != nil:
			for _, st := range e.page {
				if st != (locState{read: noAccess, write: noAccess}) {
					n++
				}
			}
		case !e.empty() && e.st != (locState{read: noAccess, write: noAccess}):
			n++
		}
	}
	return n
}

// stats returns the table's operation counters.
func (t *locTable) stats() (probes, rehashSteps, grows uint64) {
	return t.probes, t.rehashSteps, t.grows
}

// bytes reports the table's real memory footprint: the directory plus
// every promoted page.
func (t *locTable) bytes() int {
	const entrySize, pageBytes = 24, pageSize * 8 // addr + pointer + two int32
	return len(t.dir)*entrySize + t.pages*pageBytes
}
