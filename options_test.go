package race2d

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fj"
)

// reportJSON renders a report for byte-level comparison.
func reportJSONString(t *testing.T, rep *Report) string {
	t.Helper()
	if rep == nil {
		return "<nil>"
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// corpusPrograms returns the .fj test corpus plus the fuzz seed
// programs — the differential inputs for API-equivalence checks.
func corpusPrograms(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"seed-figure2":  "fork a { read r }\nread r\nfork c { join a }\nwrite r\njoin c\n",
		"seed-empty":    "fork a { } join a",
		"seed-straight": "read x write y",
		"seed-nested":   "fork a { fork b { write z } join b }",
		"seed-racy":     "fork a { write x } write x join a",
	}
	files, err := filepath.Glob(filepath.Join("cmd", "race2d", "testdata", "*.fj"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	if len(srcs) < 10 {
		t.Fatalf("corpus incomplete: %d sources", len(srcs))
	}
	return srcs
}

// TestWithStorageBackends: both 2D storage backends report the Figure 2
// race; combining WithStorage with a non-2D engine is rejected.
func TestWithStorageBackends(t *testing.T) {
	for _, s := range []Storage{StorageOpenAddr, StorageMap} {
		rep, err := Detect(figure2, WithStorage(s))
		if err != nil {
			t.Fatalf("storage %v: %v", s, err)
		}
		if !rep.Racy() || rep.Count != 1 {
			t.Fatalf("storage %v: report %+v", s, rep)
		}
	}
	if _, err := Detect(figure2, WithStorage(StorageMap), WithEngine(EngineVC)); err == nil {
		t.Fatal("WithStorage with EngineVC accepted")
	}
}

// TestWithStatsSnapshot: WithStats receives exactly the report's Stats.
func TestWithStatsSnapshot(t *testing.T) {
	var st Stats
	rep, err := Detect(figure2, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.MemOps() == 0 {
		t.Fatal("stats snapshot empty")
	}
	if !reflect.DeepEqual(st, rep.Stats) {
		t.Fatalf("snapshot %+v != report stats %+v", st, rep.Stats)
	}
}

// TestWithContextCancelsDetect: a cancelled context aborts the serial
// frontend at the next structural operation, returning the drained
// report alongside the context error.
func TestWithContextCancelsDetect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Detect(func(tk *Task) {
		h := tk.Fork(func(*Task) {})
		tk.Join(h)
	}, WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if rep == nil {
		t.Fatal("cancellation must still yield a drained report")
	}
}

// TestDetectGoroutinesOptionsSurface: the concurrent frontend honors the
// ingestion options, reports backpressure stats, and agrees with the
// serialized schedule on the verdict.
func TestDetectGoroutinesOptionsSurface(t *testing.T) {
	body := func(root *GoTask) {
		for p := 0; p < 4; p++ {
			base := Addr(1000 + 100*p)
			root.Go(func(c *GoTask) {
				for i := 0; i < 50; i++ {
					c.Write(base + Addr(i%8))
					c.Read(base + Addr(i%8))
				}
			})
		}
	}
	var st Stats
	conc, err := DetectGoroutines(body, WithQueueCapacity(128), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if conc.Stats.Producers != 5 || conc.Stats.EventsBuffered == 0 {
		t.Fatalf("ingest stats missing: %+v", conc.Stats)
	}
	if !reflect.DeepEqual(st, conc.Stats) {
		t.Fatal("WithStats snapshot diverges from report")
	}
	serial, err := DetectGoroutines(body, WithSerialIngest())
	if err != nil {
		t.Fatal(err)
	}
	if conc.Racy() != serial.Racy() || conc.Count != serial.Count ||
		conc.Tasks != serial.Tasks || conc.Locations != serial.Locations {
		t.Fatalf("concurrent %+v vs serial %+v", conc, serial)
	}
}

// TestStreamDetectorSurface: the named interface replays a trace and
// assembles a full report, and NewStreamDetector validates its options.
func TestStreamDetectorSurface(t *testing.T) {
	var tr Trace
	if _, err := fj.Run(figure2, &tr, fj.Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamDetector(WithStorage(StorageMap), WithEngine(EngineVC)); err == nil {
		t.Fatal("invalid stream options accepted")
	}
	s, err := NewStreamDetector(WithEngine(EngineVC))
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(s)
	rep := s.Report()
	if !rep.Racy() || rep.Engine != EngineVC || rep.Tasks != 3 || rep.Locations != 1 {
		t.Fatalf("stream report = %+v", rep)
	}
	// A per-event replay into the 2D sink observes task ids too.
	b := New2DSink(StorageMap)
	tr.Replay(b)
	if rep := b.Report(); !rep.Racy() || rep.Tasks != 3 || rep.Engine != Engine2D {
		t.Fatalf("2D stream report = %+v", rep)
	}
	// Unwrap exposes the engine object behind the wrapper.
	if u, ok := b.(interface{ Unwrap() any }); !ok || u.Unwrap() == nil {
		t.Fatal("stream detector does not unwrap")
	}
}

// TestOptionValidationDeterministic: negative WithQueueCapacity values
// are configuration errors on every frontend — reported
// deterministically, before any execution — while zero means "use the
// documented default" and succeeds everywhere.
func TestOptionValidationDeterministic(t *testing.T) {
	frontends := map[string]func(opts ...Option) error{
		"Detect": func(opts ...Option) error {
			_, err := Detect(figure2, opts...)
			return err
		},
		"DetectSource": func(opts ...Option) error {
			_, err := DetectSource(strings.NewReader("read x write x"), opts...)
			return err
		},
		"DetectGoroutines": func(opts ...Option) error {
			_, err := DetectGoroutines(func(root *GoTask) { root.Write(1) }, opts...)
			return err
		},
		"NewStreamDetector": func(opts ...Option) error {
			_, err := NewStreamDetector(opts...)
			return err
		},
	}
	bad := map[string]Option{
		"WithQueueCapacity(-1)":    WithQueueCapacity(-1),
		"WithQueueCapacity(-4096)": WithQueueCapacity(-4096),
	}
	for fname, run := range frontends {
		for oname, opt := range bad {
			// Deterministic: the same configuration error on every call.
			var first error
			for trial := 0; trial < 3; trial++ {
				err := run(opt)
				if err == nil {
					t.Fatalf("%s accepted %s", fname, oname)
				}
				if trial == 0 {
					first = err
				} else if err.Error() != first.Error() {
					t.Fatalf("%s/%s: nondeterministic error: %q then %q", fname, oname, first, err)
				}
			}
		}
		// Zero selects the documented default and must succeed.
		if err := run(WithQueueCapacity(0)); err != nil {
			t.Fatalf("%s rejected zero options: %v", fname, err)
		}
	}
}
