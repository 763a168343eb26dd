package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
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

// addrStream returns the next one or four addresses of a stream mixing
// the regimes the detector sees in practice: dense small addresses,
// clustered mid-range addresses, word-strided "pointers", runs of four
// consecutive ids (which share a slab line), uniform 64-bit addresses,
// and the two side-slot sentinels 0 and ^0.
func addrStream(rng *rand.Rand) []Addr {
	switch rng.Intn(12) {
	case 0:
		return []Addr{Addr(rng.Intn(16))} // dense, includes 0
	case 1:
		return []Addr{^Addr(0) - Addr(rng.Intn(4))} // near-top, includes ^0
	case 2, 3, 4:
		return []Addr{1<<20 + Addr(rng.Intn(256))} // clustered
	case 5:
		return []Addr{Addr(8<<rng.Intn(2)) * (1<<24 + Addr(rng.Intn(512)))} // 8- or 16-byte stride
	case 6:
		a := 1<<28 + Addr(rng.Intn(1024)) // any alignment
		return []Addr{a, a + 1, a + 2, a + 3}
	default:
		return []Addr{Addr(rng.Uint64())}
	}
}

// TestLocTableVsMap drives a locTable and the map model with the same
// random access stream — lookups, insertions and in-place mutations of
// the returned slot — and checks they agree at every step, across
// multiple growth cycles.
func TestLocTableVsMap(t *testing.T) {
	for _, hint := range []int{0, 1, 1000} {
		rng := rand.New(rand.NewSource(int64(42 + hint)))
		tab := newLocTable(hint)
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
				t.Fatalf("hint %d step %d: addr %#x: table %+v, model %+v", hint, step, uint64(a), *st, want)
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
			if tab.locations() != len(ref) {
				t.Fatalf("hint %d step %d: locations %d, model %d", hint, step, tab.locations(), len(ref))
			}
		}
		// Every tracked location must still be retrievable with its state.
		for a, want := range ref {
			if st := tab.get(a); *st != want {
				t.Fatalf("hint %d final: addr %#x: table %+v, model %+v", hint, uint64(a), *st, want)
			}
		}
		if tab.bytes() <= 0 {
			t.Fatalf("hint %d: non-positive bytes %d", hint, tab.bytes())
		}
	}
}

// tableRegime is a deterministic stream of get calls of one shape the
// detector meets, run into a table that starts empty. bound caps the
// probes per get (0: unbounded); it is set from the line-indexed slot
// function with headroom. The comments give both counts, the "masked
// hash" one for the earlier placement at tableHash(a) & mask.
type tableRegime struct {
	name  string
	gets  func() []Addr
	bound float64
}

// tableRegimes lists the regimes of TestLocTableProbeBounds and
// BenchmarkLocTable.
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
		// Dense sequential ids, each written then read: 1.30 probes
		// per get (masked hash: 6.55).
		{"sequential", func() []Addr {
			ids := make([]Addr, 0, 2*n)
			for i := 1; i <= n; i++ {
				ids = append(ids, Addr(i), Addr(i))
			}
			return ids
		}, 1.6},
		// 2^20 draws from 1M dense ids: 2.11 (masked hash: 3.71).
		{"dense-1M", randomIDs(1, 1<<20, 1), 2.5},
		// 2^20 draws from 64k dense ids: 1.08 (masked hash: 1.80).
		{"dense-64k", randomIDs(2, 1<<16, 1), 1.3},
		// Sequential 8-byte-strided "pointers": 1.83 (masked hash: 3.74).
		{"stride8-seq", func() []Addr {
			ids := make([]Addr, n)
			for i := range ids {
				ids[i] = Addr(8 * (i + 1))
			}
			return ids
		}, 2.2},
		// 2^20 draws from 64k 8-byte-strided pointers: 1.67 (masked
		// hash: 1.74).
		{"stride8-rand", randomIDs(3, 1<<16, 8), 1.9},
		// 2^20 draws from 64k 16-byte-strided pointers: 1.96, a little
		// above the masked hash's 1.79 (EXPERIMENTS E11b).
		{"stride16-rand", randomIDs(4, 1<<16, 16), 2.3},
		// 2^20 uniform 64-bit ids: no locality to use; 3.57 probes per
		// get either way, so no bound.
		{"uniform64", func() []Addr {
			rng := rand.New(rand.NewSource(5))
			ids := make([]Addr, 1<<20)
			for i := range ids {
				ids[i] = Addr(rng.Uint64())
			}
			return ids
		}, 0},
	}
}

// TestLocTableProbeBounds holds the slot function to its probe counts
// on each regime. Probe counts are exact, so the bounds do not flake.
func TestLocTableProbeBounds(t *testing.T) {
	for _, r := range tableRegimes() {
		t.Run(r.name, func(t *testing.T) {
			gets := r.gets()
			tab := newLocTable(0)
			for _, a := range gets {
				tab.get(a)
			}
			probes, _, _ := tab.stats()
			per := float64(probes) / float64(len(gets))
			t.Logf("%.3f probes per get", per)
			if r.bound > 0 && per > r.bound {
				t.Errorf("%.3f probes per get, bound %.2f", per, r.bound)
			}
		})
	}
}

// BenchmarkLocTable reports ns per get into a table that starts empty,
// growth included: the stream restarts on a fresh table when it runs out.
func BenchmarkLocTable(b *testing.B) {
	for _, r := range tableRegimes() {
		b.Run(r.name, func(b *testing.B) {
			gets := r.gets()
			tab := newLocTable(0)
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(gets) {
					tab, j = newLocTable(0), 0
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
// reach dense, strided and wrapping ids and several growths.
func FuzzLocTable(f *testing.F) {
	run := func(delta int64, count, strideLog int) []byte {
		return append(binary.AppendVarint(nil, delta), byte(count-1|strideLog<<4))
	}
	// 0, ^0, then 1-3, which share 0's line group.
	f.Add(uint16(0), slices.Concat(run(0, 1, 0), run(-1, 1, 0), run(2, 3, 0)))
	// Dense runs across several growths, revisiting the start.
	var dense []byte
	for i := 0; i < 12; i++ {
		dense = append(dense, run(1, 16, 0)...)
	}
	f.Add(uint16(0), append(dense, run(-200, 16, 0)...))
	// 8- and 16-byte-strided pointer runs, and ids wrapping past ^0.
	f.Add(uint16(1000), slices.Concat(run(1<<20, 16, 3), run(-64, 16, 4), run(-8, 8, 0)))
	f.Fuzz(func(t *testing.T, hint uint16, data []byte) {
		tab := newLocTable(int(hint % 4096))
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

// TestLocTableIncrementalRehash exercises the rehash machinery directly:
// lookups that hit the old slab mid-migration, a grow forced while a
// rehash is still in flight, and migrate skipping entries that were
// already moved by a lookup.
func TestLocTableIncrementalRehash(t *testing.T) {
	tab := newLocTable(0)
	const n = 3 * tableMinSize // enough to cross several growths
	for i := 1; i <= n; i++ {
		st := tab.get(Addr(i))
		st.write = int32(i)
	}

	// Force a rehash by hand and read an entry before migrate reaches it:
	// get must pull it from the old slab with its state intact.
	tab.grow()
	if tab.old == nil {
		t.Fatal("grow did not leave an old slab")
	}
	for i := n; i >= 1; i-- { // reverse order fights the migration scan
		if st := tab.get(Addr(i)); st.write != int32(i) {
			t.Fatalf("addr %d lost its state across rehash: %+v", i, *st)
		}
	}

	// Grow again while a rehash is in flight: grow must finish the old
	// migration first, losing nothing.
	tab.grow()
	tab.grow()
	for i := 1; i <= n; i++ {
		if st := tab.get(Addr(i)); st.write != int32(i) {
			t.Fatalf("addr %d lost its state across stacked grows: %+v", i, *st)
		}
	}
	if got := tab.locations(); got != n {
		t.Fatalf("locations = %d, want %d", got, n)
	}

	// The sentinel addresses live in side slots and count as locations.
	tab.get(0).read = 7
	tab.get(^Addr(0)).read = 9
	if got := tab.locations(); got != n+2 {
		t.Fatalf("locations with side slots = %d, want %d", got, n+2)
	}
	if tab.get(0).read != 7 || tab.get(^Addr(0)).read != 9 {
		t.Fatal("side-slot state lost")
	}
}

// TestLocTablePointerStability checks the documented contract: the slot
// returned by get stays valid until the next get, even when that next
// get triggers growth — the detector mutates the slot in between.
func TestLocTablePointerStability(t *testing.T) {
	tab := newLocTable(0)
	for i := 1; i <= 10*tableMinSize; i++ {
		st := tab.get(Addr(i))
		st.read, st.write = int32(i), int32(-i)
	}
	for i := 1; i <= 10*tableMinSize; i++ {
		st := tab.get(Addr(i))
		if st.read != int32(i) || st.write != int32(-i) {
			t.Fatalf("addr %d: state %+v written through a stale pointer", i, *st)
		}
	}
}

// TestDetectorStoragesAgree is the storage-level differential property:
// the same random access pattern through full detectors on every backend
// yields identical race reports, not merely identical verdicts.
func TestDetectorStoragesAgree(t *testing.T) {
	storages := []Storage{StorageOpenAddr, StorageMap, StorageShadow}
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
				a := Addr(rng.Intn(32)) // small range, shadow-friendly
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
