package race2d

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// shardCounts is the parity sweep: every count must reproduce the
// serial verdict byte for byte.
var shardCounts = []int{2, 4, 8}

// verdictJSONString renders a report for byte-level verdict comparison:
// Stats and MemoryBytes are normalized away, because the sharded
// backend's operation counters legitimately differ in shape (per-shard
// table geometry, shard fan-out counters, no path compression) while
// races, order, counts, tasks and locations may not differ at all.
func verdictJSONString(t *testing.T, rep *Report) string {
	t.Helper()
	if rep == nil {
		return "<nil>"
	}
	v := *rep
	v.Stats = obs.Stats{}
	v.MemoryBytes = 0
	data, err := v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardParityCorpus: sharded detection reproduces the serial
// verdict on every corpus program.
func TestShardParityCorpus(t *testing.T) {
	for name, src := range corpusPrograms(t) {
		serial, err := DetectSource(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := verdictJSONString(t, serial)
		for _, n := range shardCounts {
			sharded, err := DetectSource(strings.NewReader(src), WithShards(n))
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", name, n, err)
			}
			if got := verdictJSONString(t, sharded); got != want {
				t.Fatalf("%s/shards=%d: verdict diverges\nserial: %s\nsharded: %s", name, n, want, got)
			}
		}
	}
}

// TestShardParityWorkloads: sharded detection reproduces the serial
// verdict across the four runtime frontends' random workloads (fork-
// join, spawn-sync, async-finish, pipeline), 20 seeds each.
func TestShardParityWorkloads(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mix := workload.Mix{Locs: 5, ReadFrac: 0.5}
		type frontend struct {
			name string
			run  func(opts ...Option) (*Report, error)
		}
		fjw := workload.ForkJoin{Seed: seed, Ops: 70, MaxDepth: 5, Mix: mix}
		ssw := workload.SpawnSync{Seed: seed, Ops: 70, MaxDepth: 5,
			Mix: workload.Mix{Locs: 4, ReadFrac: 0.55, Block: 2}}
		afw := workload.AsyncFinish{Seed: seed, Ops: 70, MaxDepth: 5, Mix: mix}
		plw := workload.Pipeline{Stages: 3, Items: 4 + int(seed%5), Shared: seed%2 == 0,
			RacySharing: seed%3 == 0, Payload: 3}
		frontends := []frontend{
			{"forkjoin", func(opts ...Option) (*Report, error) { return Detect(fjw.Program(), opts...) }},
			{"spawnsync", func(opts ...Option) (*Report, error) { return DetectSpawnSync(ssw.Program(), opts...) }},
			{"asyncfinish", func(opts ...Option) (*Report, error) { return DetectAsyncFinish(afw.Program(), opts...) }},
			{"pipeline", func(opts ...Option) (*Report, error) { return DetectPipeline(plw.Config(), opts...) }},
		}
		for _, fr := range frontends {
			serial, err := fr.run()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, fr.name, err)
			}
			want := verdictJSONString(t, serial)
			for _, n := range shardCounts {
				sharded, err := fr.run(WithShards(n))
				if err != nil {
					t.Fatalf("seed %d %s shards=%d: %v", seed, fr.name, n, err)
				}
				if got := verdictJSONString(t, sharded); got != want {
					t.Fatalf("seed %d %s shards=%d: verdict diverges\nserial: %s\nsharded: %s",
						seed, fr.name, n, want, got)
				}
			}
		}
	}
}

// TestShardParityGoroutines: concurrent ingestion in front of the
// sharded backend — producers merge into one canonical stream, the
// structure stage stays single-consumer, shards fan out behind it.
func TestShardParityGoroutines(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		w := workload.ForkJoin{Seed: seed, Ops: 60, MaxDepth: 4,
			Mix: workload.Mix{Locs: 5, ReadFrac: 0.5}}
		serial, err := Detect(w.Program())
		if err != nil {
			t.Fatal(err)
		}
		want := verdictJSONString(t, serial)
		for _, n := range shardCounts {
			sharded, err := DetectGoroutines(w.GoProgram(), WithShards(n))
			if err != nil {
				t.Fatalf("seed %d shards=%d: %v", seed, n, err)
			}
			if got := verdictJSONString(t, sharded); got != want {
				t.Fatalf("seed %d shards=%d: goroutine-ingested sharded verdict diverges\nserial: %s\nsharded: %s",
					seed, n, want, got)
			}
		}
	}
}

// TestShardParityStorages: sharding composes with every per-location
// storage backend.
func TestShardParityStorages(t *testing.T) {
	w := workload.ForkJoin{Seed: 13, Ops: 120, MaxDepth: 5,
		Mix: workload.Mix{Locs: 7, ReadFrac: 0.5}}
	for _, storage := range []Storage{StorageOpenAddr, StorageMap} {
		serial, err := Detect(w.Program(), WithStorage(storage))
		if err != nil {
			t.Fatal(err)
		}
		want := verdictJSONString(t, serial)
		for _, n := range shardCounts {
			sharded, err := Detect(w.Program(), WithStorage(storage), WithShards(n))
			if err != nil {
				t.Fatalf("%v/shards=%d: %v", storage, n, err)
			}
			if got := verdictJSONString(t, sharded); got != want {
				t.Fatalf("%v/shards=%d: verdict diverges\nserial: %s\nsharded: %s", storage, n, want, got)
			}
		}
	}
}

// TestShardsOneIsSerial: WithShards(0) and WithShards(1) select the
// serial detector — the full report, operation counters included, is
// byte-identical to the default configuration.
func TestShardsOneIsSerial(t *testing.T) {
	w := workload.ForkJoin{Seed: 5, Ops: 100, MaxDepth: 5,
		Mix: workload.Mix{Locs: 5, ReadFrac: 0.5}}
	base, err := Detect(w.Program())
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSONString(t, base)
	for _, n := range []int{0, 1} {
		rep, err := Detect(w.Program(), WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSONString(t, rep); got != want {
			t.Fatalf("WithShards(%d) is not the serial path\nserial: %s\ngot: %s", n, want, got)
		}
	}
}

// TestWithShardsValidation: negative counts and non-2D engines are
// configuration errors.
func TestWithShardsValidation(t *testing.T) {
	w := workload.ForkJoin{Seed: 1, Ops: 20, MaxDepth: 3,
		Mix: workload.Mix{Locs: 3, ReadFrac: 0.5}}
	if _, err := Detect(w.Program(), WithShards(-1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := Detect(w.Program(), WithShards(4), WithEngine(EngineVC)); err == nil {
		t.Fatal("WithShards accepted for a non-2D engine")
	}
	// Shards(1) composes with any engine: it is the serial path.
	if _, err := Detect(w.Program(), WithShards(1), WithEngine(EngineVC)); err != nil {
		t.Fatalf("WithShards(1) must compose with any engine: %v", err)
	}
}

// TestShardedStatsSurface: the sharded run surfaces the fan-out
// counters and keeps the Theorem 3 accounting checkable.
func TestShardedStatsSurface(t *testing.T) {
	w := workload.ForkJoin{Seed: 2, Ops: 200, MaxDepth: 5,
		Mix: workload.Mix{Locs: 6, ReadFrac: 0.5}}
	var st Stats
	rep, err := Detect(w.Program(), WithShards(4), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 {
		t.Fatalf("stats report %d shards, want 4", st.Shards)
	}
	if st.CrossShardHandoffs != st.Reads+st.Writes {
		t.Fatalf("handoffs %d, want %d (one per access)", st.CrossShardHandoffs, st.Reads+st.Writes)
	}
	if rep.Stats.Shards != 4 {
		t.Fatalf("report stats lost the shard counters: %+v", rep.Stats)
	}
	if err := obs.CheckAccounting(st, rep.Tasks); err != nil {
		t.Fatal(err)
	}
}
