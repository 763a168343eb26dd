// Benchmark harness regenerating the paper's quantitative claims. The
// paper (SPAA 2015) has no measured tables — its evaluation is Theorems
// 3 and 5 plus the worked figures — so each benchmark family below
// regenerates one claim as numbers; EXPERIMENTS.md records the measured
// results next to the claimed asymptotics.
//
//	E2  Theorem 3  — suprema query throughput, near-linear in m+n
//	E4  Theorem 5  — bytes per tracked location vs task count
//	E5  Theorem 5  — amortized time per operation (flat in op count)
//	E8  Section 5  — pipeline workloads across detector engines
//	E9  Section 5  — series-parallel workloads across engines (incl.
//	                SP-bags), the "generalizes SP detectors" claim
package race2d

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/goinstr"
	"repro/internal/order"
	"repro/internal/traversal"
	"repro/internal/workload"
)

// --- E2: suprema queries on 2D lattices (Theorem 3) ---------------------

// benchTraversal caches the traversal of a wide grid with n vertices.
func gridTraversal(b *testing.B, rows, cols int) traversal.T {
	b.Helper()
	g := order.Grid(rows, cols)
	tr, err := traversal.NonSeparating(g)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkE2Suprema(b *testing.B) {
	const rows = 8
	for _, cols := range []int{128, 1024, 8192, 65536} {
		n := rows * cols
		tr := gridTraversal(b, rows, cols)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := core.NewWalker(n)
				queries := 0
				var visited []int
				for _, it := range tr {
					w.Feed(it)
					if it.Kind != traversal.Loop {
						continue
					}
					visited = append(visited, it.S)
					// m ≈ 4n queries total: four random valid args per
					// vertex, mimicking the detector's two checks plus
					// two updates per operation.
					for q := 0; q < 4; q++ {
						x := visited[rng.Intn(len(visited))]
						_ = w.Sup(x, it.S)
						queries++
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(queries+n)), "ns/uf-op")
			}
		})
	}
}

// --- E4: space per tracked location (Theorem 5) --------------------------

func BenchmarkE4SpacePerLocation(b *testing.B) {
	for _, tasks := range []int{16, 128, 1024, 4096} {
		w := workload.SharedReadFanout{Tasks: tasks, Locs: 8}
		var tr fj.Trace
		if _, err := w.Run(&tr); err != nil {
			b.Fatal(err)
		}
		for _, e := range []Engine{Engine2D, EngineVC, EngineFastTrack} {
			b.Run(fmt.Sprintf("engine=%s/tasks=%d", e, tasks), func(b *testing.B) {
				var perLoc float64
				for i := 0; i < b.N; i++ {
					d := newDetector(e)
					// Replay everything but the final writes so the Θ(n)
					// engines hold their read-shared state (FastTrack
					// legitimately collapses it at a dominating write).
					for _, ev := range tr.Events {
						if ev.Kind == fj.EvWrite {
							continue
						}
						d.Event(ev)
					}
					perLoc = float64(locationBytes(d)) / float64(d.Locations())
				}
				b.ReportMetric(perLoc, "bytes/loc")
			})
		}
	}
}

// locationBytes reports the per-location state of any engine.
func locationBytes(d detector) int {
	type locBytes interface{ LocationBytes() int }
	if lb, ok := d.(locBytes); ok {
		return lb.LocationBytes()
	}
	type perLoc interface{ BytesPerLocation() int }
	if pl, ok := d.(perLoc); ok {
		return pl.BytesPerLocation() * d.Locations()
	}
	if a, ok := d.(detectorSinkAdapter); ok {
		return a.D.BytesPerLocation() * a.D.Locations()
	}
	return d.MemoryBytes()
}

// --- E5: amortized time per operation (Theorem 5) ------------------------

func BenchmarkE5AmortizedTime(b *testing.B) {
	for _, items := range []int{100, 1000, 10000} {
		w := workload.Pipeline{Stages: 8, Items: items, Shared: true}
		var tr fj.Trace
		if _, err := w.Run(&tr); err != nil {
			b.Fatal(err)
		}
		ops := 0
		for _, ev := range tr.Events {
			if ev.Kind == fj.EvRead || ev.Kind == fj.EvWrite {
				ops++
			}
		}
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := fj.NewDetectorSink(8*items + 1)
				tr.Replay(d)
				if d.Racy() {
					b.Fatal("unexpected race")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/memop")
		})
	}
}

// --- E8: pipeline workloads across engines (Section 5) -------------------

func BenchmarkE8Pipeline(b *testing.B) {
	w := workload.Pipeline{Stages: 16, Items: 500, Shared: true}
	var tr fj.Trace
	if _, err := w.Run(&tr); err != nil {
		b.Fatal(err)
	}
	b.Run("engine=none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Replay(fj.NullSink{})
		}
	})
	for _, e := range []Engine{Engine2D, EngineVC, EngineFastTrack} {
		b.Run("engine="+e.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := newDetector(e)
				tr.Replay(d)
				if d.Racy() {
					b.Fatal("unexpected race")
				}
			}
		})
	}
}

// --- E9: series-parallel workloads across engines (incl. SP-bags) --------

func BenchmarkE9SeriesParallel(b *testing.B) {
	w := workload.SpawnSync{Seed: 11, Ops: 20000, MaxDepth: 8,
		Mix: workload.Mix{Locs: 256, ReadFrac: 0.7}}
	var tr fj.Trace
	if _, err := w.Run(&tr); err != nil {
		b.Fatal(err)
	}
	for _, e := range []Engine{Engine2D, EngineVC, EngineFastTrack, EngineSPBags, EngineSPOrder} {
		b.Run("engine="+e.String(), func(b *testing.B) {
			b.ReportAllocs()
			want := newDetector(e)
			tr.Replay(want)
			expect := want.Racy()
			for i := 0; i < b.N; i++ {
				d := newDetector(e)
				tr.Replay(d)
				if d.Racy() != expect {
					b.Fatal("nondeterministic verdict")
				}
			}
		})
	}
}

// --- Detector hot path: storage backends × workloads ---------------------

// detectorBenchTrace records one of the acceptance workloads.
func detectorBenchTrace(b *testing.B, name string) *fj.Trace {
	b.Helper()
	var tr fj.Trace
	var err error
	switch name {
	case "pipeline":
		_, err = workload.Pipeline{Stages: 16, Items: 8000, Shared: true, Payload: 8}.Run(&tr)
	case "spawntree":
		_, err = workload.SpawnSync{Seed: 9, Ops: 500000, MaxDepth: 11,
			Mix: workload.Mix{Locs: 1 << 20, ReadFrac: 0.7, Block: 8}}.Run(&tr)
	default:
		b.Fatalf("unknown workload %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return &tr
}

// BenchmarkDetector measures the per-access hot path of the 2D detector
// across per-location storage backends on the pipeline and spawn-tree
// workloads.
//
//   - replay/…: full event replay into a fresh detector each iteration,
//     one event at a time — storage=map is the seed detector's path.
//   - steady/…: the same per-event replay into an already-warm
//     detector, the steady-state regime of a long-running monitor; the
//     paged backend runs allocation-free here (0 allocs/op).
func BenchmarkDetector(b *testing.B) {
	storages := []core.Storage{core.StorageOpenAddr, core.StorageMap}
	for _, wl := range []string{"pipeline", "spawntree"} {
		tr := detectorBenchTrace(b, wl)
		memops := 0
		locs := make(map[core.Addr]struct{})
		for _, ev := range tr.Events {
			if ev.Kind == fj.EvRead || ev.Kind == fj.EvWrite {
				memops++
				locs[ev.Loc] = struct{}{}
			}
		}
		locHint := len(locs)
		perMemop := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*memops), "ns/memop")
		}
		for _, s := range storages {
			b.Run(fmt.Sprintf("replay/storage=%s/workload=%s", s, wl), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := fj.NewDetectorSinkSized(16, locHint, s)
					tr.Replay(d)
				}
				perMemop(b)
			})
		}
		for _, s := range storages {
			b.Run(fmt.Sprintf("steady/storage=%s/workload=%s", s, wl), func(b *testing.B) {
				d := fj.NewDetectorSinkSized(16, locHint, s)
				tr.Replay(d) // warm: tables sized, locations touched
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.Replay(d)
				}
				perMemop(b)
			})
		}
	}
}

// --- End-to-end: full execution including the runtime --------------------

func BenchmarkEndToEndPipeline(b *testing.B) {
	cfg := workload.Pipeline{Stages: 8, Items: 500, Shared: true}
	b.Run("uninstrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Run(fj.NullSink{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detector2d", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := fj.NewDetectorSink(8*500 + 1)
			if _, err := cfg.Run(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Frontend and ablation benchmarks -------------------------------------

// BenchmarkFrontendOverhead compares the serial runtime against the
// goroutine frontend on the same program shape: the price of real
// goroutines under the mandatory serial schedule.
func BenchmarkFrontendOverhead(b *testing.B) {
	const nTasks = 200
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := fj.Run(func(t *fj.Task) {
				for k := 0; k < nTasks; k++ {
					h := t.Fork(func(c *fj.Task) { c.Write(core.Addr(k + 1)) })
					t.Join(h)
				}
			}, fj.NullSink{}, fj.Options{AutoJoin: true})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := goinstr.Run(func(t *goinstr.Task) {
				for k := 0; k < nTasks; k++ {
					h := t.Go(func(c *goinstr.Task) { c.Write(core.Addr(k + 1)) })
					t.Join(h)
				}
			}, fj.NullSink{})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompressionAblation compares the thread-compressed detector
// (Theorem 5) against the operation-granularity formulation (Section 4
// before compression) on the same trace.
func BenchmarkCompressionAblation(b *testing.B) {
	w := workload.Pipeline{Stages: 8, Items: 500, Shared: true}
	var tr fj.Trace
	if _, err := w.Run(&tr); err != nil {
		b.Fatal(err)
	}
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		var mem int
		for i := 0; i < b.N; i++ {
			d := fj.NewDetectorSink(8*500 + 1)
			tr.Replay(d)
			mem = d.D.W.MemoryBytes()
		}
		b.ReportMetric(float64(mem), "walker-bytes")
	})
	b.Run("uncompressed", func(b *testing.B) {
		b.ReportAllocs()
		var mem int
		for i := 0; i < b.N; i++ {
			d := fj.NewUncompressedSink()
			tr.Replay(d)
			mem = d.D.W.MemoryBytes()
		}
		b.ReportMetric(float64(mem), "walker-bytes")
	})
}

// BenchmarkRecognizeLattice measures the Remark 1 recognition pipeline
// (lattice check + conjugate orders + dominance embedding) — polynomial
// tooling cost, far from the detector's hot path.
func BenchmarkRecognizeLattice(b *testing.B) {
	for _, dim := range [][2]int{{4, 4}, {6, 6}} {
		g := order.Scramble(order.Grid(dim[0], dim[1]))
		b.Run(fmt.Sprintf("grid=%dx%d", dim[0], dim[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RecognizeLattice(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Report JSON codec (EXPERIMENTS E21) ---------------------------------

// BenchmarkReportJSON times the Report JSON codec on the median of 32
// Reports shaped like perfbench's `verdicts` pool (about 470 races,
// 45 KB compact): the compact encode raced's Finish sends and stores,
// the indented encode of WriteJSON (`race2d -json`, perfbench's
// report.encode_us), and the decode the client's Finish and Fetch run.
func BenchmarkReportJSON(b *testing.B) {
	reps := verdictReports(b, 32)
	sort.Slice(reps, func(i, j int) bool { return len(reps[i].Races) < len(reps[j].Races) })
	rep := reps[len(reps)/2]
	data, err := rep.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d races, %d bytes compact", len(rep.Races), len(data))
	b.Run("encode-compact", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := rep.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-indent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rep.WriteJSON(io.Discard, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var back Report
			if err := back.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
