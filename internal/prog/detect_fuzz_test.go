package prog_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baseline/bruteforce"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/prog"

	race2d "repro"
)

// maxFuzzEvents bounds the traces FuzzDetectVsOracle checks: the
// oracle's reachability closure is quadratic in the task graph, and a
// short program with nested repeats can emit millions of events.
const maxFuzzEvents = 4096

// raceKey is one reported race up to its supremum witness: the 2D
// detector names the racing access (location, task, kind) exactly, but
// its Prior is a supremum root, which the oracle has no notion of.
type raceKey struct {
	loc  core.Addr
	task int
	kind core.AccessKind
}

// boundedTrace records a trace and cancels the run once it outgrows
// maxFuzzEvents.
type boundedTrace struct {
	fj.Trace
	cancel context.CancelFunc
}

func (b *boundedTrace) Event(e fj.Event) {
	if len(b.Events) >= maxFuzzEvents {
		b.cancel()
		return
	}
	b.Trace.Event(e)
}

// FuzzDetectVsOracle runs every program the parser accepts and the
// interpreter executes to a valid trace through the 2D detector on both
// storages and through the exhaustive oracle. The set of racing
// accesses (location, task, kind) must be the oracle's — soundness and
// precision of Theorem 5 at every access, not only the first — and the
// two storages' Reports must be byte-identical apart from the counters
// that measure the storage itself (memory_bytes and the table_*
// counters), which differ by design. Run the seeds with `go test`;
// explore with `go test -fuzz=FuzzDetectVsOracle ./internal/prog`.
func FuzzDetectVsOracle(f *testing.F) {
	for _, s := range prog.ParseSeeds {
		f.Add(s)
	}
	corpus, err := filepath.Glob(filepath.Join("..", "..", "cmd", "race2d", "testdata", "*.fj"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no corpus programs: %v", err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := prog.ParseString(src)
		if err != nil {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tr := &boundedTrace{cancel: cancel}
		if _, err := prog.ExecContext(ctx, p, tr); err != nil {
			return
		}
		if err := fj.ValidateTrace(&tr.Trace); err != nil {
			return
		}

		var reports [2][]byte
		var got map[raceKey]bool
		for i, s := range []race2d.Storage{race2d.StorageOpenAddr, race2d.StorageMap} {
			d := race2d.New2DSink(s)
			tr.Replay(d)
			rep := d.Report()
			if i == 0 {
				got = map[raceKey]bool{}
				for _, r := range rep.Races {
					got[raceKey{r.Loc, r.Current, r.Kind}] = true
				}
			}
			rep.MemoryBytes = 0
			rep.Stats.TableProbes, rep.Stats.TableRehashSteps, rep.Stats.TableGrows = 0, 0, 0
			if reports[i], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Fatalf("storages disagree on %q:\n%s: %s\n%s: %s", src,
				race2d.StorageOpenAddr, reports[0], race2d.StorageMap, reports[1])
		}

		want := map[raceKey]bool{}
		for _, pr := range bruteforce.Analyze(&tr.Trace).Pairs {
			kind := core.WriteRead
			switch {
			case pr.Second.Write && pr.First.Write:
				kind = core.WriteWrite
			case pr.Second.Write:
				kind = core.ReadWrite
			}
			want[raceKey{pr.Second.Loc, int(pr.Second.Task), kind}] = true
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%q: oracle race %+v missed by the 2D detector", src, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%q: 2D detector reports %+v, which the oracle does not", src, k)
			}
		}
	})
}
