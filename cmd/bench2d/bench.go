// The `-e bench` experiment: a parallel sharded replay pipeline over the
// detector × workload matrix, emitting BENCH_race2d.json so successive
// PRs have a machine-readable performance trajectory.
//
// Traces are recorded once per workload, then replay jobs (one per
// detector × workload cell) are sharded across -parallel worker
// goroutines. Each cell's replay stays strictly serial — the suprema
// algorithm requires the serial schedule — parallelism exists only
// *across* independent traces, which is exactly how a fleet of
// production monitors shards work. Timing runs inside the pool;
// allocation accounting runs in a short serial pass afterwards because
// Go's allocation counters are process-global.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline/fasttrack"
	"repro/internal/baseline/spbags"
	"repro/internal/baseline/spom"
	"repro/internal/baseline/vc"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/workload"
)

// benchSink is the surface a replay cell needs from any detector.
type benchSink interface {
	fj.Sink
	Racy() bool
	Stats() obs.Stats
}

// accountable is satisfied by the 2D-family sinks, whose live counters
// must obey the paper's Theorem 3/5 accounting.
type accountable interface{ CheckAccounting() error }

// benchDetector names one detector configuration of the matrix.
type benchDetector struct {
	name   string
	spOnly bool // defined only on series-parallel workloads
	fresh  func() benchSink
}

// benchDetectors lists the matrix's engines. Every cell replays into
// the engine itself, with no wrapper between, so the 2D cells and the
// baselines alike pay one Sink.Event dispatch per event.
func benchDetectors() []benchDetector {
	storage := func(s core.Storage) func() benchSink {
		return func() benchSink { return fj.NewDetectorSinkStorage(16, s) }
	}
	return []benchDetector{
		{name: "2d", fresh: storage(core.StorageOpenAddr)},
		{name: "2d-map", fresh: storage(core.StorageMap)},
		{name: "vc", fresh: func() benchSink { return vc.New() }},
		{name: "fasttrack", fresh: func() benchSink { return fasttrack.New() }},
		{name: "spbags", spOnly: true, fresh: func() benchSink { return spbags.New() }},
		{name: "sporder", spOnly: true, fresh: func() benchSink { return spom.New() }},
	}
}

// benchWorkload is one recorded deterministic trace.
type benchWorkload struct {
	name   string
	sp     bool // series-parallel shape: SP-only engines may replay it
	tr     *fj.Trace
	memops int
}

func benchWorkloads(quick bool) []benchWorkload {
	scale := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	specs := []struct {
		name string
		sp   bool
		run  func(fj.Sink) (int, error)
	}{
		{"pipeline", false, workload.Pipeline{Stages: 16, Items: scale(1500, 150), Shared: true,
			Payload: 8}.Run},
		{"spawntree", true, workload.SpawnSync{Seed: 9, Ops: scale(150000, 5000), MaxDepth: 11,
			Mix: workload.Mix{Locs: scale(1<<18, 512), ReadFrac: 0.7, Block: 8}}.Run},
		{"forkjoin", false, workload.ForkJoin{Seed: 7, Ops: scale(40000, 4000), MaxDepth: 8,
			Mix: workload.Mix{Locs: 64, ReadFrac: 0.6}}.Run},
		{"dedup", false, workload.Dedup{Chunks: scale(1000, 100), DupEvery: 4}.Run},
		{"ferret", false, workload.Ferret{Queries: scale(1000, 100), IndexShards: 8}.Run},
		{"encoder", false, workload.Encoder{Rows: 24, Cols: scale(125, 25)}.Run},
	}
	out := make([]benchWorkload, 0, len(specs))
	// Label the recording phase so CPU profiles of the harness separate
	// trace ingestion from replay.
	pprof.Do(context.Background(), pprof.Labels("phase", "ingest"), func(context.Context) {
		for _, s := range specs {
			tr := &fj.Trace{}
			if _, err := s.run(tr); err != nil {
				panic(fmt.Sprintf("bench: record %s: %v", s.name, err))
			}
			w := benchWorkload{name: s.name, sp: s.sp, tr: tr}
			for _, ev := range tr.Events {
				if ev.Kind == fj.EvRead || ev.Kind == fj.EvWrite {
					w.memops++
				}
			}
			out = append(out, w)
		}
	})
	return out
}

// benchCell is one measured detector × workload result, as serialized
// into BENCH_race2d.json.
type benchCell struct {
	Workload string `json:"workload"`
	Detector string `json:"detector"`
	Events   int    `json:"events"`
	MemOps   int    `json:"memops"`
	Reps     int    `json:"reps"`

	NsPerEvent float64 `json:"ns_per_event"`
	NsPerMemOp float64 `json:"ns_per_memop"`

	// Cold: one replay into a fresh detector (includes per-location
	// first-touch work). Steady: a second replay into the same detector —
	// the paged store's hot path is allocation-free here.
	BytesPerReplayCold    uint64 `json:"b_per_replay_cold"`
	AllocsPerReplayCold   uint64 `json:"allocs_per_replay_cold"`
	BytesPerReplaySteady  uint64 `json:"b_per_replay_steady"`
	AllocsPerReplaySteady uint64 `json:"allocs_per_replay_steady"`

	Racy bool `json:"racy"`

	// Stats is the detector's operation-count snapshot after the cold
	// replay of phase 2 — one full pass over the trace.
	Stats obs.Stats `json:"stats"`

	wl  *benchWorkload
	det benchDetector
}

// eBench runs the matrix and lands its sections in jsonPath (when
// non-empty), keeping the document's other sections. With
// checkAllocs, a nonzero steady-state allocation count on any 2D-family
// cell fails the run — the CI guard for the zero-allocation hot path.
func eBench(quick bool, workers int, jsonPath string, checkAllocs bool) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	wls := benchWorkloads(quick)
	dets := benchDetectors()

	var cells []*benchCell
	for i := range wls {
		wl := &wls[i]
		for _, det := range dets {
			if det.spOnly && !wl.sp {
				continue
			}
			cells = append(cells, &benchCell{
				Workload: wl.name,
				Detector: det.name,
				Events:   len(wl.tr.Events),
				MemOps:   wl.memops,
				wl:       wl,
				det:      det,
			})
		}
	}

	// Phase 1 — sharded parallel replay: cells stream through a worker
	// pool; every cell replays its trace serially, repeatedly enough for
	// a stable per-event figure.
	target := 150 * time.Millisecond
	if quick {
		target = 15 * time.Millisecond
	}
	var totalEvents int64
	jobs := make(chan *benchCell)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("phase", "replay"), func(context.Context) {
			defer wg.Done()
			for c := range jobs {
				// Collect garbage left by the previous cell so its GC debt
				// is not charged to this one (vector-clock cells can leave
				// hundreds of MB behind).
				runtime.GC()
				d := c.det.fresh()
				warm := time.Now()
				c.wl.tr.Replay(d)
				est := time.Since(warm)
				c.Racy = d.Racy()
				reps := 1
				if est > 0 {
					reps = int(target / est)
				}
				if reps < 2 {
					reps = 2
				} else if reps > 2000 {
					reps = 2000
				}
				// Per-rep timing, summarized by the median: robust against
				// GC pauses and scheduler noise on shared machines.
				durs := make([]time.Duration, reps)
				for i := 0; i < reps; i++ {
					fresh := c.det.fresh()
					t0 := time.Now()
					c.wl.tr.Replay(fresh)
					durs[i] = time.Since(t0)
					if fresh.Racy() != c.Racy {
						panic(fmt.Sprintf("bench: %s/%s: nondeterministic verdict", c.Workload, c.Detector))
					}
				}
				sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
				med := durs[reps/2]
				if reps%2 == 0 {
					med = (durs[reps/2-1] + durs[reps/2]) / 2
				}
				c.Reps = reps
				c.NsPerEvent = float64(med.Nanoseconds()) / float64(c.Events)
				c.NsPerMemOp = float64(med.Nanoseconds()) / float64(c.MemOps)
			}
		})
	}
	for _, c := range cells {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	for _, c := range cells {
		totalEvents += int64((c.Reps + 1) * c.Events)
	}

	// Cross-engine verdict agreement per workload (the replay pipeline
	// doubles as a differential harness).
	verdict := map[string]bool{}
	for _, c := range cells {
		want, seen := verdict[c.Workload]
		if !seen {
			verdict[c.Workload] = c.Racy
		} else if c.Racy != want {
			fmt.Fprintf(os.Stderr, "bench: %s: engine %s disagrees on raciness\n", c.Workload, c.Detector)
			return 1
		}
	}

	// Phase 2 — serial allocation accounting (Go's allocation counters
	// are process-global, so this cannot run inside the pool). The cold
	// replay also yields each cell's stats block, and the 2D family's
	// counters are checked against the paper's accounting bounds.
	var accountingErr error
	pprof.Do(context.Background(), pprof.Labels("phase", "allocs"), func(context.Context) {
		var ms0, ms1 runtime.MemStats
		for _, c := range cells {
			d := c.det.fresh()
			runtime.ReadMemStats(&ms0)
			c.wl.tr.Replay(d)
			runtime.ReadMemStats(&ms1)
			c.BytesPerReplayCold = ms1.TotalAlloc - ms0.TotalAlloc
			c.AllocsPerReplayCold = ms1.Mallocs - ms0.Mallocs
			c.Stats = d.Stats()
			if a, ok := d.(accountable); ok && accountingErr == nil {
				if err := a.CheckAccounting(); err != nil {
					accountingErr = fmt.Errorf("%s/%s: %w", c.Workload, c.Detector, err)
				}
			}
			runtime.ReadMemStats(&ms0)
			c.wl.tr.Replay(d)
			runtime.ReadMemStats(&ms1)
			c.BytesPerReplaySteady = ms1.TotalAlloc - ms0.TotalAlloc
			c.AllocsPerReplaySteady = ms1.Mallocs - ms0.Mallocs
		}
	})
	if accountingErr != nil {
		fmt.Fprintln(os.Stderr, "bench: accounting:", accountingErr)
		return 1
	}

	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Workload != cells[j].Workload {
			return cells[i].Workload < cells[j].Workload
		}
		return cells[i].Detector < cells[j].Detector
	})

	w := table(fmt.Sprintf("\nBench: %d cells, %d workers, %.1f Mevents/s aggregate, wall %v",
		len(cells), workers, float64(totalEvents)/wall.Seconds()/1e6, wall.Round(time.Millisecond)))
	fmt.Fprintln(w, "workload\tdetector\tevents\tns/event\tns/memop\tsteady allocs/replay\tracy")
	for _, c := range cells {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.1f\t%d\t%v\n",
			c.Workload, c.Detector, c.Events, c.NsPerEvent, c.NsPerMemOp, c.AllocsPerReplaySteady, c.Racy)
	}
	w.Flush()

	if checkAllocs {
		failed := false
		for _, c := range cells {
			if strings.HasPrefix(c.Detector, "2d") && c.AllocsPerReplaySteady > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s/%s: steady-state replay allocates (%d allocs, %d bytes); the 2D hot path must be allocation-free\n",
					c.Workload, c.Detector, c.AllocsPerReplaySteady, c.BytesPerReplaySteady)
				failed = true
			}
		}
		if failed {
			return 1
		}
	}

	// The E13 concurrent-ingestion cells ride along in the same JSON
	// document, so the performance trajectory covers ingestion too.
	ingest := e13(quick)

	if jsonPath != "" {
		results := make([]benchCell, len(cells))
		for i, c := range cells {
			results[i] = *c
		}
		err := mergeCells(jsonPath, map[string]any{
			"go_version":             runtime.Version(),
			"gomaxprocs":             runtime.GOMAXPROCS(0),
			"parallel_workers":       workers,
			"quick":                  quick,
			"replay_wall_ms":         float64(wall.Microseconds()) / 1e3,
			"aggregate_events_per_s": float64(totalEvents) / wall.Seconds(),
			"results":                results,
			"ingest":                 ingest,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}
