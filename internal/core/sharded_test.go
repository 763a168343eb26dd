package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/workload"
)

// replaySharded runs tr through a fresh sharded sink and returns it
// finished.
func replaySharded(tr *fj.Trace, shards int, s core.Storage, batched bool) *fj.ShardedDetectorSink {
	sink := fj.NewShardedDetectorSink(4, 64, shards, s, 0)
	if batched {
		tr.ReplayBatches(sink, 0)
	} else {
		tr.Replay(sink)
	}
	sink.Finish()
	return sink
}

// TestShardedMatchesSerial: identical races (value and order), counts
// and location totals across shard counts, storages and ingestion
// paths, on random fork-join programs.
func TestShardedMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		w := workload.ForkJoin{Seed: seed, Ops: 80, MaxDepth: 5,
			Mix: workload.Mix{Locs: 5, ReadFrac: 0.5}}
		var tr fj.Trace
		if _, err := w.Run(&tr); err != nil {
			t.Fatal(err)
		}
		serial := fj.NewDetectorSink(4)
		tr.Replay(serial)
		for _, shards := range []int{1, 2, 4, 8} {
			for _, storage := range []core.Storage{core.StorageOpenAddr, core.StorageMap} {
				for _, batched := range []bool{false, true} {
					label := fmt.Sprintf("seed %d shards %d %s batched=%v", seed, shards, storage, batched)
					sh := replaySharded(&tr, shards, storage, batched)
					if got, want := sh.Count(), serial.D.Count(); got != want {
						t.Fatalf("%s: count %d, serial %d", label, got, want)
					}
					if got, want := sh.Locations(), serial.D.Locations(); got != want {
						t.Fatalf("%s: locations %d, serial %d", label, got, want)
					}
					gr, wr := sh.Races(), serial.Races()
					if len(gr) != len(wr) {
						t.Fatalf("%s: %d races, serial %d", label, len(gr), len(wr))
					}
					for i := range wr {
						if gr[i] != wr[i] {
							t.Fatalf("%s: race %d = %v, serial %v", label, i, gr[i], wr[i])
						}
					}
					if err := sh.CheckAccounting(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}
}

// TestShardedStatsMirrorSerial: the query/storage counters the shards
// replicate must equal the serial detector's for the same stream (the
// shard fan-out counters are extra, and path steps are zero: readers
// never compress).
func TestShardedStatsMirrorSerial(t *testing.T) {
	w := workload.ForkJoin{Seed: 3, Ops: 200, MaxDepth: 5,
		Mix: workload.Mix{Locs: 6, ReadFrac: 0.5}}
	var tr fj.Trace
	if _, err := w.Run(&tr); err != nil {
		t.Fatal(err)
	}
	serial := fj.NewDetectorSink(4)
	tr.Replay(serial)
	ss := serial.Stats()
	sh := replaySharded(&tr, 4, core.StorageOpenAddr, false)
	st := sh.Stats()
	if st.Reads != ss.Reads || st.Writes != ss.Writes {
		t.Fatalf("memops: sharded %d/%d, serial %d/%d", st.Reads, st.Writes, ss.Reads, ss.Writes)
	}
	if st.SupQueries != ss.SupQueries {
		t.Fatalf("sup queries: sharded %d, serial %d", st.SupQueries, ss.SupQueries)
	}
	if st.Finds != st.SupQueries {
		t.Fatalf("finds %d != sup queries %d", st.Finds, st.SupQueries)
	}
	if st.PathSteps != 0 {
		t.Fatalf("sharded readers must not compress: path steps %d", st.PathSteps)
	}
	if st.Shards != 4 {
		t.Fatalf("shards counter = %d, want 4", st.Shards)
	}
	if st.CrossShardHandoffs != st.Reads+st.Writes {
		t.Fatalf("handoffs %d, want one per access %d", st.CrossShardHandoffs, st.Reads+st.Writes)
	}
	if st.ShardEventsMax == 0 || st.ShardEventsMax > st.Reads+st.Writes {
		t.Fatalf("shard events max %d out of range (memops %d)", st.ShardEventsMax, st.Reads+st.Writes)
	}
}

// TestShardedMaxRaces: per-shard retention plus sequence-number merge
// reproduces the serial MaxRaces prefix exactly.
func TestShardedMaxRaces(t *testing.T) {
	w := workload.ForkJoin{Seed: 9, Ops: 150, MaxDepth: 5,
		Mix: workload.Mix{Locs: 2, ReadFrac: 0.3}}
	var tr fj.Trace
	if _, err := w.Run(&tr); err != nil {
		t.Fatal(err)
	}
	serial := core.NewDetector(4, 64)
	serial.MaxRaces = 3
	ssink := &fj.DetectorSink{D: serial}
	tr.Replay(ssink)
	if serial.Count() < 4 {
		t.Skipf("workload produced only %d races; need > 3", serial.Count())
	}
	sh := core.NewShardedDetector(4, 64, 4, core.StorageOpenAddr, 0, 3)
	shsink := &fj.ShardedDetectorSink{D: sh}
	tr.Replay(shsink)
	sh.Finish()
	if sh.Count() != serial.Count() {
		t.Fatalf("count %d, serial %d", sh.Count(), serial.Count())
	}
	gr, wr := sh.Races(), serial.Races()
	if len(gr) != len(wr) {
		t.Fatalf("retained %d races, serial %d", len(gr), len(wr))
	}
	for i := range wr {
		if gr[i] != wr[i] {
			t.Fatalf("race %d = %v, serial %v", i, gr[i], wr[i])
		}
	}
}

// TestShardedEventAfterFinishPanics: the sink is single-use by
// contract.
func TestShardedEventAfterFinishPanics(t *testing.T) {
	d := core.NewShardedDetector(4, 64, 2, core.StorageOpenAddr, 0, 0)
	d.Begin(0)
	d.OnWrite(0, 42)
	d.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on event after Finish")
		}
	}()
	d.OnRead(0, 42)
}

// TestShardedBackpressure: a tiny queue forces the structure stage to
// stall rather than buffer unboundedly, and the stalls are counted.
func TestShardedBackpressure(t *testing.T) {
	d := core.NewShardedDetector(4, 64, 1, core.StorageOpenAddr, 8, 0)
	d.Begin(0)
	for i := 0; i < 100_000; i++ {
		d.OnWrite(0, core.Addr(i%257))
	}
	d.Finish()
	st := d.Stats()
	if st.Writes != 100_000 {
		t.Fatalf("writes %d, want 100000", st.Writes)
	}
	if st.ShardStalls == 0 {
		t.Fatal("expected dispatcher stalls with an 8-op queue")
	}
}
