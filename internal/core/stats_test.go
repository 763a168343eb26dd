package core

import (
	"math/rand"
	"testing"

	"repro/internal/order"
	"repro/internal/traversal"
)

// TestAccountingOnGridTraversals asserts the acceptance form of
// Theorem 3 on the E2 grid workloads: posing m supremum queries along a
// non-separating traversal of an n-vertex grid costs exactly m finds
// and at most n−1 unions, with total union-find work within the
// amortized budget.
func TestAccountingOnGridTraversals(t *testing.T) {
	for _, dim := range [][2]int{{8, 32}, {8, 128}, {4, 512}} {
		g := order.Grid(dim[0], dim[1])
		tr, err := traversal.NonSeparating(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		w := NewWalker(g.N())
		queries := uint64(0)
		var visited []int
		for _, it := range tr {
			w.Feed(it)
			if it.Kind != traversal.Loop {
				continue
			}
			visited = append(visited, it.S)
			for q := 0; q < 4; q++ {
				_ = w.Sup(visited[rng.Intn(len(visited))], it.S)
				queries++
			}
		}
		s := w.Stats()
		if s.SupQueries != queries {
			t.Errorf("grid %dx%d: SupQueries = %d, want %d posed", dim[0], dim[1], s.SupQueries, queries)
		}
		if s.Finds != queries {
			t.Errorf("grid %dx%d: finds = %d, want exactly m = %d (Theorem 3)", dim[0], dim[1], s.Finds, queries)
		}
		if n := uint64(g.N()); s.Unions > n-1 {
			t.Errorf("grid %dx%d: unions = %d > n-1 = %d", dim[0], dim[1], s.Unions, n-1)
		}
		if err := w.CheckAccounting(); err != nil {
			t.Errorf("grid %dx%d: %v", dim[0], dim[1], err)
		}
	}
}

// TestDetectorStats checks the detector-level snapshot: memory
// operations, storage counters, races and the batch histogram.
func TestDetectorStats(t *testing.T) {
	for _, storage := range []Storage{StorageOpenAddr, StorageMap} {
		d := NewDetectorStorage(4, 0, storage)
		d.W.Grow(2)
		d.W.Visit(0)
		d.OnWrite(0, 1)
		d.OnRead(0, 2)
		// Halt 0 (its delayed last-arc never arrives), then write from 1:
		// the prior write's root is unvisited, so the accesses race.
		d.W.StopArc(0)
		d.W.Visit(1)
		d.OnWrite(1, 1)
		s := d.Stats()
		if s.Reads != 1 || s.Writes != 2 {
			t.Errorf("%v: reads/writes = %d/%d, want 1/2", storage, s.Reads, s.Writes)
		}
		if s.MemOps() != 3 {
			t.Errorf("%v: MemOps = %d, want 3", storage, s.MemOps())
		}
		if s.TableProbes == 0 {
			t.Errorf("%v: no storage probes counted", storage)
		}
		if s.Races != uint64(d.Count()) || s.Races == 0 {
			t.Errorf("%v: stats races = %d, detector count = %d", storage, s.Races, d.Count())
		}
		if s.Locations != 2 {
			t.Errorf("%v: locations = %d, want 2", storage, s.Locations)
		}
		if s.BytesPerLocation != 8 {
			t.Errorf("%v: bytes/loc = %v, want 8", storage, s.BytesPerLocation)
		}
		if err := d.CheckAccounting(); err != nil {
			t.Errorf("%v: %v", storage, err)
		}
	}
}

// TestDetectorBatchHistogram verifies OnAccessBatch feeds the
// batch-size histogram.
func TestDetectorBatchHistogram(t *testing.T) {
	d := NewDetector(4, 0)
	batch := make([]Access, 10)
	for i := range batch {
		batch[i] = Access{Loc: Addr(i + 1), T: 0, Write: i%2 == 0}
	}
	d.OnAccessBatch(batch)
	d.OnAccessBatch(batch[:3])
	s := d.Stats()
	if s.Batches != 2 {
		t.Fatalf("batches = %d, want 2", s.Batches)
	}
	// Sizes 10 and 3 land in buckets 3 and 1.
	if len(s.BatchSizes) != 4 || s.BatchSizes[3] != 1 || s.BatchSizes[1] != 1 {
		t.Fatalf("batch histogram = %v, want size-10 and size-3 buckets", s.BatchSizes)
	}
	if s.Reads+s.Writes != 13 {
		t.Fatalf("batched memops = %d, want 13", s.Reads+s.Writes)
	}
}

// TestStatsSnapshotAllocFree verifies the steady-state constraint: a
// warm detector's per-access hot path stays allocation-free with the
// observability counters enabled (the snapshot itself may allocate for
// the histogram slice, the counting must not).
func TestStatsSnapshotAllocFree(t *testing.T) {
	d := NewDetector(4, 64)
	batch := make([]Access, 64)
	for i := range batch {
		batch[i] = Access{Loc: Addr(i + 1), T: 0, Write: i%3 == 0}
	}
	d.OnAccessBatch(batch) // warm: locations touched, tables sized
	if allocs := testing.AllocsPerRun(100, func() { d.OnAccessBatch(batch) }); allocs != 0 {
		t.Fatalf("steady-state OnAccessBatch allocates %v times per run with stats enabled", allocs)
	}
}
