package core

import "repro/internal/obs"

// Stats is the detector's operation-count snapshot (see internal/obs):
// the live form of the paper's accounting theorems. Every engine in the
// repository reports the same shape, so cross-engine comparisons can
// put operation counts next to wall time.
type Stats = obs.Stats

// Stats snapshots the detector's operation counters: memory operations,
// the walker's supremum queries with the union-find finds/unions/path
// steps answering them (Theorems 2/3), the location-storage directory
// probes, doublings and the entries those re-placed, the batch-size histogram of the
// batched ingestion path, and the race/location/space totals
// (Theorem 5). Taking a snapshot allocates only for the trimmed
// histogram slice and never perturbs the counters.
func (d *Detector) Stats() Stats {
	s := d.W.Stats()
	s.Reads = d.reads
	s.Writes = d.writes
	if d.table != nil {
		s.TableProbes, s.TableRehashSteps, s.TableGrows = d.table.stats()
	} else {
		s.TableProbes = d.mapProbes
	}
	s.Races = uint64(d.count)
	s.Locations = uint64(d.Locations())
	s.BytesPerLocation = float64(d.BytesPerLocation())
	s.Batches = d.batches.Count()
	s.BatchSizes = d.batches.Snapshot()
	return s
}

// CheckAccounting verifies the paper's operation accounting on the
// detector's live counters: Theorem 3's "exactly m finds, at most n−1
// unions" for the m supremum queries posed so far, and Theorem 5's
// amortized bound on total union-find work. It returns nil when the
// counts match the theorems; tests and CI assert it directly.
func (d *Detector) CheckAccounting() error {
	return obs.CheckAccounting(d.Stats(), d.W.Len())
}
