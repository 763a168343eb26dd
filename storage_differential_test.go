package race2d

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/prog"
	"repro/internal/workload"
)

// storageMatrix replays tr through both storage backends (paged and
// map) and asserts they report byte-identical races, race counts and
// location counts. Returns the common verdict.
func storageMatrix(t *testing.T, label string, tr *fj.Trace) bool {
	t.Helper()
	storages := []core.Storage{core.StorageOpenAddr, core.StorageMap}
	type cell struct {
		name        string
		races       []core.Race
		count, locs int
	}
	var cells []cell
	for _, s := range storages {
		d := fj.NewDetectorSinkStorage(4, s)
		tr.Replay(d)
		cells = append(cells, cell{s.String(), d.Races(), d.D.Count(), d.D.Locations()})
	}
	want := cells[0]
	for _, c := range cells[1:] {
		if c.count != want.count || c.locs != want.locs {
			t.Fatalf("%s: %s counts %d races over %d locations, %s counts %d over %d",
				label, want.name, want.count, want.locs, c.name, c.count, c.locs)
		}
		if len(c.races) != len(want.races) {
			t.Fatalf("%s: %s reports %d races, %s reports %d",
				label, want.name, len(want.races), c.name, len(c.races))
		}
		for i := range want.races {
			if c.races[i] != want.races[i] {
				t.Fatalf("%s: race %d differs: %s got %v, %s got %v",
					label, i, want.name, want.races[i], c.name, c.races[i])
			}
		}
	}
	return len(want.races) > 0
}

// TestStorageDifferentialCorpus replays every sample program of the
// .fj corpus through the full storage × ingestion matrix.
func TestStorageDifferentialCorpus(t *testing.T) {
	dir := filepath.Join("cmd", "race2d", "testdata")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".fj") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		p, err := prog.ParseString(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		var tr fj.Trace
		if _, err := prog.Exec(p, &tr); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		storageMatrix(t, f.Name(), &tr)
		ran++
	}
	if ran == 0 {
		t.Fatal("no .fj corpus files found")
	}
}

// TestStorageDifferentialFuzzSeeds replays the parser fuzz seed programs
// (the accepted, executable ones) through the storage matrix.
func TestStorageDifferentialFuzzSeeds(t *testing.T) {
	seeds := []string{
		"fork a { read r }\nread r\nfork c { join a }\nwrite r\njoin c\n",
		"fork a { } join a",
		"read x write y",
		"fork a { fork b { write z } join b }",
		"fork a { write x } write x join a",
		strings.Repeat("fork t { ", 50) + "write x" + strings.Repeat(" }", 50),
	}
	for i, src := range seeds {
		p, err := prog.ParseString(src)
		if err != nil {
			continue
		}
		var tr fj.Trace
		if _, err := prog.Exec(p, &tr); err != nil {
			continue
		}
		storageMatrix(t, fmt.Sprintf("seed %d", i), &tr)
	}
}

// TestStorageDifferentialRandom replays random fork-join and spawn-sync
// programs through the storage matrix and checks the common verdict
// against the exhaustive ground-truth oracle.
func TestStorageDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		fjw := workload.ForkJoin{Seed: seed, Ops: 60, MaxDepth: 5,
			Mix: workload.Mix{Locs: 5, ReadFrac: 0.55}}
		var tr fj.Trace
		if _, err := fjw.Run(&tr); err != nil {
			t.Fatal(err)
		}
		racy := storageMatrix(t, fmt.Sprintf("forkjoin seed %d", seed), &tr)
		if truth := GroundTruth(&tr); racy != truth {
			t.Fatalf("forkjoin seed %d: storages report racy=%v, ground truth %v", seed, racy, truth)
		}

		ssw := workload.SpawnSync{Seed: seed, Ops: 60, MaxDepth: 5,
			Mix: workload.Mix{Locs: 4, ReadFrac: 0.55, Block: 2}}
		tr = fj.Trace{}
		if _, err := ssw.Run(&tr); err != nil {
			t.Fatal(err)
		}
		racy = storageMatrix(t, fmt.Sprintf("spawnsync seed %d", seed), &tr)
		if truth := GroundTruth(&tr); racy != truth {
			t.Fatalf("spawnsync seed %d: storages report racy=%v, ground truth %v", seed, racy, truth)
		}
	}
}
