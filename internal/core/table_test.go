package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// tableRef is the reference model for locTable: a plain Go map.
type tableRef map[Addr]locState

func (r tableRef) get(a Addr) locState {
	st, ok := r[a]
	if !ok {
		st = locState{read: noAccess, write: noAccess}
		r[a] = st
	}
	return st
}

// addrStream returns the next one or more addresses of a stream mixing
// the regimes the detector sees in practice: dense small addresses on
// page 0 (0 included), ids on the top page (^0 included), clustered
// mid-range addresses, word-strided "pointers", runs of four consecutive
// ids, uniform 64-bit addresses, and a uniform id followed by a second
// id on its page, which promotes an inline-only entry.
func addrStream(rng *rand.Rand) []Addr {
	switch rng.Intn(13) {
	case 0:
		return []Addr{Addr(rng.Intn(pageSize))} // page 0, includes 0
	case 1:
		return []Addr{^Addr(0) - Addr(rng.Intn(pageSize))} // top page, includes ^0
	case 2, 3, 4:
		return []Addr{1<<20 + Addr(rng.Intn(256))} // clustered
	case 5:
		return []Addr{Addr(8<<rng.Intn(2)) * (1<<24 + Addr(rng.Intn(512)))} // 8- or 16-byte stride
	case 6:
		a := 1<<28 + Addr(rng.Intn(1024)) // any alignment
		return []Addr{a, a + 1, a + 2, a + 3}
	case 7:
		a := Addr(rng.Uint64())
		return []Addr{a, a ^ Addr(1+rng.Intn(pageMask))} // second id on an inline page
	default:
		return []Addr{Addr(rng.Uint64())}
	}
}

// TestLocTableVsMap drives a locTable and the map model with the same
// random access stream — lookups, insertions, promotions and in-place
// mutations of the returned slot — and checks they agree at every step,
// across multiple directory doublings.
func TestLocTableVsMap(t *testing.T) {
	for _, seed := range []int64{42, 43, 1042} {
		rng := rand.New(rand.NewSource(seed))
		tab := newLocTable()
		ref := tableRef{}
		var keys, pending []Addr
		for step := 0; step < 60000; step++ {
			var a Addr
			switch {
			case len(pending) > 0:
				a, pending = pending[0], pending[1:]
			case len(keys) > 0 && rng.Intn(3) == 0:
				a = keys[rng.Intn(len(keys))] // revisit a known location
			default:
				pending = addrStream(rng)
				a, pending = pending[0], pending[1:]
			}
			if _, known := ref[a]; !known {
				keys = append(keys, a)
			}
			want := ref.get(a)
			st := tab.get(a)
			if *st != want {
				t.Fatalf("seed %d step %d: addr %#x: table %+v, model %+v", seed, step, uint64(a), *st, want)
			}
			// Mutate through the returned pointer, as OnRead/OnWrite do.
			if rng.Intn(2) == 0 {
				st.read = int32(step)
				want.read = int32(step)
			} else {
				st.write = int32(step)
				want.write = int32(step)
			}
			ref[a] = want
			// locations scans the store, so check it every so often.
			if step%997 == 0 && tab.locations() != len(ref) {
				t.Fatalf("seed %d step %d: locations %d, model %d", seed, step, tab.locations(), len(ref))
			}
		}
		// Every tracked location must still be retrievable with its state.
		for a, want := range ref {
			if st := tab.get(a); *st != want {
				t.Fatalf("seed %d final: addr %#x: table %+v, model %+v", seed, uint64(a), *st, want)
			}
		}
		if tab.locations() != len(ref) {
			t.Fatalf("seed %d final: locations %d, model %d", seed, tab.locations(), len(ref))
		}
		if tab.grows == 0 || tab.pages == 0 || tab.pages == tab.used {
			t.Fatalf("seed %d: stream missed a regime: %d doublings, %d pages of %d entries",
				seed, tab.grows, tab.pages, tab.used)
		}
	}
}

// tableRegime is a deterministic stream of get calls of one shape the
// detector meets, run into a table that starts empty. probeBound caps
// the directory probes per get and byteBound the bytes per location (0:
// unbounded); both are set from the measured counts, which the comments
// give, with headroom.
type tableRegime struct {
	name       string
	gets       func() []Addr
	probeBound float64
	byteBound  float64
}

// tableRegimes lists the regimes of TestLocTableProbeBounds,
// TestLocStoreBytes and BenchmarkLocTable.
func tableRegimes() []tableRegime {
	const n = 1 << 18 // distinct ids of the sequential regimes
	randomIDs := func(seed int64, space, stride int) func() []Addr {
		return func() []Addr {
			rng := rand.New(rand.NewSource(seed))
			ids := make([]Addr, 1<<20)
			for i := range ids {
				ids[i] = Addr(stride * (1 + rng.Intn(space)))
			}
			return ids
		}
	}
	return []tableRegime{
		// Dense sequential ids, each written then read: three lookups
		// per page (insert, inline hit, promotion), 0.025 probes per
		// get, 8.8 B per location.
		{"sequential", func() []Addr {
			ids := make([]Addr, 0, 2*n)
			for i := 1; i <= n; i++ {
				ids = append(ids, Addr(i), Addr(i))
			}
			return ids
		}, 0.04, 10},
		// 2^20 draws from 1M dense ids: 1.01 probes, 13.8 B per
		// location (663k of the 1M ids drawn, every page promoted).
		{"dense-1M", randomIDs(1, 1<<20, 1), 1.2, 16},
		// 2^20 draws from 64k dense ids: 1.00, 8.8 B.
		{"dense-64k", randomIDs(2, 1<<16, 1), 1.2, 10},
		// Sequential 8-byte-strided "pointers": two lookups per page
		// (insert, promotion), 0.27; 8 locations per page, so 70 B per
		// location.
		{"stride8-seq", func() []Addr {
			ids := make([]Addr, n)
			for i := range ids {
				ids[i] = Addr(8 * (i + 1))
			}
			return ids
		}, 0.35, 76},
		// 2^20 draws from 64k 8-byte-strided pointers: 1.01, 70 B.
		{"stride8-rand", randomIDs(3, 1<<16, 8), 1.2, 76},
		// 2^20 draws from 64k 16-byte-strided pointers: 1.01; 4
		// locations per page, 140 B.
		{"stride16-rand", randomIDs(4, 1<<16, 16), 1.2, 150},
		// 2^20 uniform 64-bit ids: one inline directory entry each, a
		// directory at half load after its last doubling; 3.32 probes,
		// 48 B per location, within twice the 32 B of a 16-byte entry
		// per location at half load.
		{"uniform64", func() []Addr {
			rng := rand.New(rand.NewSource(5))
			ids := make([]Addr, 1<<20)
			for i := range ids {
				ids[i] = Addr(rng.Uint64())
			}
			return ids
		}, 3.6, 64},
	}
}

// TestLocTableProbeBounds holds the directory to its probe counts on
// each regime. Probe counts are exact, so the bounds do not flake.
func TestLocTableProbeBounds(t *testing.T) {
	for _, r := range tableRegimes() {
		t.Run(r.name, func(t *testing.T) {
			gets := r.gets()
			tab := newLocTable()
			for _, a := range gets {
				tab.get(a).read = 0
			}
			probes, _, _ := tab.stats()
			per := float64(probes) / float64(len(gets))
			t.Logf("%.3f probes per get", per)
			if r.probeBound > 0 && per > r.probeBound {
				t.Errorf("%.3f probes per get, bound %.2f", per, r.probeBound)
			}
		})
	}
}

// TestLocStoreBytes holds the store to its bytes per location on each
// regime, and on the stated worst case: two locations per page, each
// page promoted for its second location.
func TestLocStoreBytes(t *testing.T) {
	perLoc := func(gets []Addr) float64 {
		tab := newLocTable()
		for _, a := range gets {
			tab.get(a).read = 0
		}
		return float64(tab.bytes()) / float64(tab.locations())
	}
	for _, r := range tableRegimes() {
		b := perLoc(r.gets())
		t.Logf("%s: %.1f B per location", r.name, b)
		if r.byteBound > 0 && b > r.byteBound {
			t.Errorf("%s: %.1f B per location, bound %.0f", r.name, b, r.byteBound)
		}
	}
	rng := rand.New(rand.NewSource(6))
	pairs := make([]Addr, 0, 1<<17)
	for len(pairs) < cap(pairs) {
		a := Addr(rng.Uint64())
		pairs = append(pairs, a, a^1)
	}
	worst := perLoc(pairs)
	t.Logf("two per page: %.1f B per location", worst)
	if bound := float64(pageSize*8/2 + 48); worst > bound {
		t.Errorf("two per page: %.1f B per location, bound %.0f", worst, bound)
	}
}

// BenchmarkLocTable reports ns per get into a table that starts empty,
// growth included: the stream restarts on a fresh table when it runs out.
func BenchmarkLocTable(b *testing.B) {
	for _, r := range tableRegimes() {
		b.Run(r.name, func(b *testing.B) {
			gets := r.gets()
			tab := newLocTable()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(gets) {
					tab, j = newLocTable(), 0
				}
				tab.get(gets[j]).read++
			}
		})
	}
}

// FuzzLocTable checks the table against the map model over fuzzed id
// sequences. The input is a series of runs: a zigzag varint delta from
// the last id, then a byte whose low nibble is the run length minus one
// and whose next three bits are the log2 of the stride, so short inputs
// reach dense, strided and wrapping ids, promotions and several
// doublings.
func FuzzLocTable(f *testing.F) {
	run := func(delta int64, count, strideLog int) []byte {
		return append(binary.AppendVarint(nil, delta), byte(count-1|strideLog<<4))
	}
	// 0, ^0, then 1-3, which share 0's page.
	f.Add(slices.Concat(run(0, 1, 0), run(-1, 1, 0), run(2, 3, 0)))
	// Dense runs across several doublings, revisiting the start.
	var dense []byte
	for i := 0; i < 12; i++ {
		dense = append(dense, run(1, 16, 0)...)
	}
	f.Add(append(dense, run(-200, 16, 0)...))
	// 8- and 16-byte-strided pointer runs, and ids wrapping past ^0.
	f.Add(slices.Concat(run(1<<20, 16, 3), run(-64, 16, 4), run(-8, 8, 0)))
	// Ids two pages apart (inline entries), then a second id on the
	// first of them (a promotion), then ^0-3 … ^0, which share ^0's page.
	f.Add(slices.Concat(run(1<<30, 16, 7), run(-15*128+5, 1, 0), run(-(1<<30)-9, 4, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := newLocTable()
		ref := tableRef{}
		var a Addr
		for step := int32(0); len(data) > 0; {
			delta, k := binary.Varint(data)
			if k <= 0 || k == len(data) {
				break
			}
			spec := data[k]
			data = data[k+1:]
			a += Addr(delta)
			for i := 0; i <= int(spec&15); i++ {
				if i > 0 {
					a += 1 << (spec >> 4 & 7)
				}
				step++
				want := ref.get(a)
				st := tab.get(a)
				if *st != want {
					t.Fatalf("addr %#x: table %+v, model %+v", uint64(a), *st, want)
				}
				st.write, want.write = step, step
				ref[a] = want
			}
		}
		if tab.locations() != len(ref) {
			t.Fatalf("locations %d, model %d", tab.locations(), len(ref))
		}
		for a, want := range ref {
			if st := tab.get(a); *st != want {
				t.Fatalf("final: addr %#x: table %+v, model %+v", uint64(a), *st, want)
			}
		}
	})
}

// TestLocTablePointerStability checks the documented contract: the slot
// returned by get stays valid until the next get, even when that next
// get triggers growth — the detector mutates the slot in between.
func TestLocTablePointerStability(t *testing.T) {
	const n = 10 * dirMinSize * pageSize
	tab := newLocTable()
	for i := 1; i <= n; i++ {
		st := tab.get(Addr(i))
		st.read, st.write = int32(i), int32(-i)
	}
	for i := 1; i <= n; i++ {
		st := tab.get(Addr(i))
		if st.read != int32(i) || st.write != int32(-i) {
			t.Fatalf("addr %d: state %+v written through a stale pointer", i, *st)
		}
	}
}

// TestLocTablePointerAcrossGrowth holds the pointer returned by the get
// that doubles the directory, and by the get that promotes an inline
// entry to a page: both run before the pointer is taken, so what the
// caller stores through it must stick.
func TestLocTablePointerAcrossGrowth(t *testing.T) {
	tab := newLocTable()
	id := func(i int) Addr { return Addr(i+1) << 20 } // one page each: inline entries
	for i := 0; i < dirMinSize*3/4; i++ {
		tab.get(id(i)).write = int32(i)
	}
	if tab.grows != 0 || tab.pages != 0 {
		t.Fatalf("filling to 3/4 load: %d doublings, %d pages", tab.grows, tab.pages)
	}
	st := tab.get(id(dirMinSize)) // the doubling get
	if tab.grows != 1 {
		t.Fatalf("%d doublings after passing 3/4 load, want 1", tab.grows)
	}
	st.write = 99
	st = tab.get(id(0) + 1) // the promoting get: a second id on id(0)'s page
	if tab.pages != 1 {
		t.Fatalf("%d pages after a second id on an inline page, want 1", tab.pages)
	}
	st.read = 77
	for i := 0; i < dirMinSize*3/4; i++ {
		if got := tab.get(id(i)).write; got != int32(i) {
			t.Fatalf("id %d: write %d, want %d", i, got, i)
		}
	}
	if got := tab.get(id(dirMinSize)).write; got != 99 {
		t.Fatalf("write through the doubling get's pointer lost: %d", got)
	}
	if got := tab.get(id(0) + 1).read; got != 77 {
		t.Fatalf("write through the promoting get's pointer lost: %d", got)
	}
	if got := tab.locations(); got != dirMinSize*3/4+2 {
		t.Fatalf("locations = %d, want %d", got, dirMinSize*3/4+2)
	}
}

// TestDetectorStoragesAgree is the storage-level differential property:
// the same random access pattern through full detectors on both backends
// yields identical race reports, not merely identical verdicts.
func TestDetectorStoragesAgree(t *testing.T) {
	storages := []Storage{StorageOpenAddr, StorageMap}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		nTasks := 2 + rng.Intn(6)
		dets := make([]*Detector, len(storages))
		for i, s := range storages {
			dets[i] = NewDetectorStorage(nTasks, 0, s)
		}
		// A random fork-join-ish schedule: visits, last-arcs and accesses
		// over a small task set and a mixed address range.
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0:
				s, u := rng.Intn(nTasks), rng.Intn(nTasks)
				for _, d := range dets {
					d.W.LastArc(s, u)
				}
			default:
				task := rng.Intn(nTasks)
				a := Addr(rng.Intn(32)) // small range: one page
				if rng.Intn(4) == 0 {
					a = 1<<30 + Addr(rng.Intn(32))
				}
				write := rng.Intn(2) == 0
				for _, d := range dets {
					d.W.Visit(task)
					if write {
						d.OnWrite(task, a)
					} else {
						d.OnRead(task, a)
					}
				}
			}
		}
		want := dets[0].Races()
		for i, d := range dets[1:] {
			got := d.Races()
			if len(got) != len(want) {
				t.Fatalf("trial %d: %v reports %d races, %v reports %d",
					trial, storages[0], len(want), storages[i+1], len(got))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d race %d: %v got %v, %v got %v",
						trial, k, storages[i+1], got[k], storages[0], want[k])
				}
			}
			if d.Locations() != dets[0].Locations() {
				t.Fatalf("trial %d: location counts differ: %d vs %d",
					trial, d.Locations(), dets[0].Locations())
			}
		}
	}
}

// scriptedOp is one access of a scripted run: thread t reads or writes
// loc.
type scriptedOp struct {
	t     int
	loc   Addr
	write bool
}

// runScript drives a detector with a scripted access sequence; threads
// 0 and 1 are pre-visited, and thread 1 halts unjoined so cross-thread
// conflicts race.
func runScript(d *Detector, ops []scriptedOp) {
	d.W.Visit(0)
	d.W.Visit(1)
	for _, op := range ops {
		d.W.Visit(op.t)
		if op.write {
			d.OnWrite(op.t, op.loc)
		} else {
			d.OnRead(op.t, op.loc)
		}
	}
}

// TestShadowMatchesMapProperty: the paged shadow store is
// observationally identical to the map store.
func TestShadowMatchesMapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		ops := make([]scriptedOp, n)
		for i := range ops {
			// Mix dense and sparse addresses across pages.
			loc := Addr(rng.Intn(64))
			if rng.Intn(4) == 0 {
				loc = Addr(rng.Uint64() % (1 << 20))
			}
			ops[i] = scriptedOp{t: rng.Intn(2), loc: loc, write: rng.Intn(2) == 0}
		}
		m := NewDetectorStorage(2, 8, StorageMap)
		s := NewDetector(2, 8)
		runScript(m, ops)
		runScript(s, ops)
		if m.Count() != s.Count() || m.Locations() != s.Locations() {
			t.Logf("seed %d: count %d/%d locations %d/%d", seed,
				m.Count(), s.Count(), m.Locations(), s.Locations())
			return false
		}
		for i := range m.Races() {
			if m.Races()[i] != s.Races()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShadowPageCacheAcrossPages alternates between two pages, so the
// page cache misses on every access and must not serve one page's
// locations from the other.
func TestShadowPageCacheAcrossPages(t *testing.T) {
	d := NewDetector(1, 0)
	d.W.Visit(0)
	for i := 0; i < 10; i++ {
		d.OnWrite(0, Addr(i))
		d.OnWrite(0, Addr(pageSize+i))
	}
	if d.Racy() {
		t.Fatal("same-thread accesses flagged")
	}
	if d.Locations() != 20 {
		t.Fatalf("locations = %d, want 20", d.Locations())
	}
	if d.table.pages != 2 {
		t.Fatalf("%d pages allocated, want 2", d.table.pages)
	}
}

func TestShadowFigure2(t *testing.T) {
	const m, a, c = 0, 1, 2
	const r = Addr(0x10)
	d := NewDetector(3, 0)
	w := d.W
	w.Visit(m)
	w.Visit(a)
	d.OnRead(a, r)
	w.StopArc(a)
	w.Visit(m)
	d.OnRead(m, r)
	w.LastArc(a, c)
	w.Visit(c)
	w.StopArc(c)
	w.Visit(m)
	d.OnWrite(m, r)
	if d.Count() != 1 || d.Races()[0].Kind != ReadWrite {
		t.Fatalf("paged detector races = %v", d.Races())
	}
	if d.MemoryBytes() <= 0 {
		t.Fatal("memory accounting empty")
	}
}
