package core

import "math/bits"

// Open-addressing storage for per-location detector state.
//
// The reference map storage (`map[Addr]*locState`) costs one heap
// allocation per tracked location plus a hash-bucket walk and a pointer
// chase on every access; the constant factors drown the Θ(1)-per-location
// asymptotics of Theorem 5 in measurements. This table stores the two
// identifiers *by value* in a flat slab of locEntry records probed
// linearly from a home slot — no per-location allocation, no
// indirection, one predictable probe sequence per access. It is the
// detector's default storage; the map and the paged shadow table remain
// available behind the Storage option for differential testing and for
// workloads with different locality profiles.
//
// The home slot is chosen per 64-byte cache line, not per entry. Four
// 16-byte entries fill a line (slabs are power-of-two allocations of at
// least 1 KiB, which Go's allocator aligns to at least 1 KiB, so a line
// of the slab is a cache line), and the four consecutive addresses
// a&^3 … a|3 share one: the line is the high bits of a Fibonacci
// product of a>>2, the offset within it a small xor-fold of a's low
// bits (see home). Every frontend in this repository numbers locations
// densely, and locations used together (a pipeline cell's payload)
// tend to be neighbours, so one access usually pulls in the line the
// next one needs. Fibonacci hashing spreads consecutive groups evenly
// over the lines, which keeps one dense range from clustering; groups
// from several ranges can still collide. Probe counts are therefore
// workload-dependent, and a lookup that misses during a rehash also
// probes the old slab: the benchmark's traces take 1.1 slots per memory
// operation on fork-join and 1.9 to 6.9 on the pipeline, depending on
// its width (EXPERIMENTS E11b).
//
// Growth is incremental: when the load factor passes 3/4 the table
// allocates a doubled slab and migrates a bounded number of old entries
// per subsequent access, so no single memory operation pays a full-table
// rehash. Entries are never deleted (the detector only accumulates
// locations), which keeps probing tombstone-free.

const (
	// tableMinSize is the initial slab size (power of two).
	tableMinSize = 64
	// tableMigrateStep bounds the old-slab slots scanned per access
	// during an incremental rehash.
	tableMigrateStep = 64
	// tableLineEntries is the number of locEntry records per 64-byte
	// cache line, and tableLineBits its log2.
	tableLineEntries = 4
	tableLineBits    = 2
	// tableFib is 2^64 divided by the golden ratio, the Fibonacci
	// hashing multiplier.
	tableFib = 0x9E3779B97F4A7C15
)

// locEntry is one slab slot: the location address plus its R/W suprema,
// held by value. addr 0 marks an empty slot; the real address 0 lives in
// a dedicated side slot (see locTable.zero).
type locEntry struct {
	addr  Addr
	state locState
}

// locTable is a linear-probing open-addressing table from Addr to
// locState with power-of-two capacity and incremental rehash.
type locTable struct {
	entries []locEntry
	mask    uint64
	shift   uint // 64 - log2(lines in entries); see home
	count   int  // distinct locations, including the side slots

	// Incremental rehash: old holds the previous slab until every live
	// entry has been migrated; lookups consult it on a miss in entries.
	old      []locEntry
	oldMask  uint64
	oldShift uint
	migrated int // next old slot to examine

	// Side slots for the two addresses that cannot live in the slab:
	// 0 doubles as the empty-slot marker.
	zero    locState
	hasZero bool
	top     locState // state for ^Addr(0)
	hasTop  bool

	// Operation counters (plain uint64s, serial structure): probes
	// counts slots examined across all lookups, rehashSteps counts
	// old-slab slots migrated incrementally, grows counts slab
	// doublings. They expose the table's constant factors next to the
	// union-find counts in core.Stats.
	probes      uint64
	rehashSteps uint64
	grows       uint64
}

// newLocTable returns a table presized for about locHint locations.
func newLocTable(locHint int) *locTable {
	size := tableMinSize
	for size*3 < locHint*4 { // keep the hinted load under 3/4
		size <<= 1
	}
	return &locTable{
		entries: make([]locEntry, size),
		mask:    uint64(size - 1),
		shift:   lineShift(size),
	}
}

// lineShift returns the shift that maps a 64-bit Fibonacci product to
// a line index of a slab with size entries (a power of two).
func lineShift(size int) uint {
	return 64 - uint(bits.TrailingZeros(uint(size))-tableLineBits)
}

// home returns a's first probe slot in a slab whose line shift is
// shift. The line is the high bits of the Fibonacci product of a>>2,
// so a&^3 … a|3 land in one line and consecutive groups spread evenly
// over the slab. The offset xor-folds bits 0–5 of a: within a group it
// permutes a&3 over the four slots, and word-strided addresses (8 or
// 16 bytes apart, a&3 constant) still reach all four offsets.
func home(a Addr, shift uint) uint64 {
	line := (uint64(a>>tableLineBits) * tableFib) >> shift
	return line<<tableLineBits | uint64(a^a>>2^a>>4)&(tableLineEntries-1)
}

// tableHash mixes the address into a well-spread 64-bit value
// (Fibonacci multiplicative hash, folded so the low bits carry the
// high-entropy product bits). The sharded detector routes locations to
// shards with it; the table itself places entries with home.
func tableHash(a Addr) uint64 {
	h := uint64(a) * tableFib
	return h ^ (h >> 32)
}

// get returns the state slot for a, inserting a fresh {noAccess,
// noAccess} record on first touch. The returned pointer stays valid
// until the next call to get: growth and migration run before the
// probe, never after.
func (t *locTable) get(a Addr) *locState {
	switch a {
	case 0:
		t.probes++
		if !t.hasZero {
			t.zero = locState{read: noAccess, write: noAccess}
			t.hasZero = true
			t.count++
		}
		return &t.zero
	case ^Addr(0):
		t.probes++
		if !t.hasTop {
			t.top = locState{read: noAccess, write: noAccess}
			t.hasTop = true
			t.count++
		}
		return &t.top
	}
	if t.old != nil {
		t.migrate(tableMigrateStep)
	}
	if (t.count+1)*4 > len(t.entries)*3 {
		t.grow()
	}
	i := home(a, t.shift)
	probed := uint64(0) // accumulated locally; one store on exit keeps the loop tight
	for {
		probed++
		e := &t.entries[i]
		if e.addr == a {
			t.probes += probed
			return &e.state
		}
		if e.addr == 0 {
			t.probes += probed
			if t.old != nil {
				if st, ok := t.lookupOld(a); ok {
					// Move the still-unmigrated entry over; the stale
					// old copy is shadowed (entries probes first) and
					// skipped by migrate's insert-if-absent.
					*e = locEntry{addr: a, state: st}
					return &e.state
				}
			}
			e.addr = a
			e.state = locState{read: noAccess, write: noAccess}
			t.count++
			return &e.state
		}
		i = (i + 1) & t.mask
	}
}

// lookupOld probes the pre-rehash slab for a.
func (t *locTable) lookupOld(a Addr) (locState, bool) {
	i := home(a, t.oldShift)
	probed := uint64(0)
	for {
		probed++
		e := &t.old[i]
		if e.addr == a {
			t.probes += probed
			return e.state, true
		}
		if e.addr == 0 {
			t.probes += probed
			return locState{}, false
		}
		i = (i + 1) & t.oldMask
	}
}

// grow starts (or, if one is still running, completes and restarts) an
// incremental rehash into a doubled slab.
func (t *locTable) grow() {
	if t.old != nil {
		t.migrate(len(t.old)) // finish the in-flight rehash first
	}
	t.grows++
	t.old = t.entries
	t.oldMask = t.mask
	t.oldShift = t.shift
	t.migrated = 0
	t.entries = make([]locEntry, 2*len(t.old))
	t.mask = uint64(len(t.entries) - 1)
	t.shift = lineShift(len(t.entries))
}

// migrate examines up to steps slots of the old slab, inserting live
// entries absent from the new one, and drops the old slab once every
// slot has been examined.
func (t *locTable) migrate(steps int) {
	for ; steps > 0 && t.migrated < len(t.old); steps-- {
		e := t.old[t.migrated]
		t.migrated++
		t.rehashSteps++
		if e.addr != 0 {
			t.insertIfAbsent(e)
		}
	}
	if t.migrated >= len(t.old) {
		t.old = nil
	}
}

// insertIfAbsent places a migrated entry into the current slab unless a
// fresher copy already moved (via lookupOld during a get).
func (t *locTable) insertIfAbsent(src locEntry) {
	i := home(src.addr, t.shift)
	for {
		e := &t.entries[i]
		if e.addr == src.addr {
			return
		}
		if e.addr == 0 {
			*e = src
			return
		}
		i = (i + 1) & t.mask
	}
}

// locations returns the number of distinct locations ever touched.
func (t *locTable) locations() int { return t.count }

// stats returns the table's operation counters.
func (t *locTable) stats() (probes, rehashSteps, grows uint64) {
	return t.probes, t.rehashSteps, t.grows
}

// bytes reports the table's real memory footprint (both slabs while a
// rehash is in flight).
func (t *locTable) bytes() int {
	const entrySize = 16 // addr + two int32
	return (len(t.entries) + len(t.old)) * entrySize
}
