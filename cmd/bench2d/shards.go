// The E16 experiment: shard scaling of the split detector. One
// recorded pipeline trace is replayed through the sharded backend at 1,
// 2, 4 and 8 location shards; the 1-shard cell is the serial detector
// itself (exactly what WithShards(1) selects), so the table reads as
// speedup over the production default. Every sharded cell must
// reproduce the serial verdict — parity is asserted per cell, as is the
// Theorem 3/5 operation accounting.
//
// A sharded sink is single-use (Finish joins its location workers), so
// unlike -e bench every timed rep replays into a fresh sink; the serial
// cell is measured the same way to keep cells comparable.
package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/workload"
)

// shardCell is one measured shard-count point, serialized into
// BENCH_race2d.json under "shards".
type shardCell struct {
	Shards     int    `json:"shards"`
	Events     int    `json:"events"`
	MemOps     uint64 `json:"memops"`
	GoMaxProcs int    `json:"gomaxprocs"`

	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_s"`
	// Speedup is the serial (1-shard) cell's ns/event over this cell's.
	Speedup float64 `json:"speedup"`

	CrossShardHandoffs uint64 `json:"cross_shard_handoffs"`
	ShardStalls        uint64 `json:"shard_stalls"`
	ShardEventsMax     uint64 `json:"shard_events_max"`

	// AllocsPerReplaySteady is measured for the serial cell only (the
	// -checkallocs gate); sharded replays allocate by design (queues,
	// worker state).
	AllocsPerReplaySteady uint64 `json:"allocs_per_replay_steady"`

	Racy bool `json:"racy"`
}

// shardTrace records the deterministic pipeline workload every cell
// replays: a wide grid with a shared read and per-cell payload buffers,
// so accesses spread across many locations (the dimension sharding
// partitions).
func shardTrace(quick bool) *fj.Trace {
	items := 1500
	if quick {
		items = 150
	}
	tr := &fj.Trace{}
	w := workload.Pipeline{Stages: 16, Items: items, Shared: true, Payload: 8}
	if _, err := w.Run(tr); err != nil {
		panic(fmt.Sprintf("bench: shard workload: %v", err))
	}
	return tr
}

// shardSink builds the cell's detector: the serial sink at 1 shard,
// the sharded backend otherwise — mirroring the WithShards option.
type shardSink interface {
	fj.Sink
	Races() []core.Race
	Count() int
	Racy() bool
	Stats() obs.Stats
	CheckAccounting() error
}

// serialShardSink adds the Count accessor DetectorSink leaves on its
// embedded detector.
type serialShardSink struct{ *fj.DetectorSink }

func (s serialShardSink) Count() int { return s.D.Count() }

func newShardCellSink(shards int) shardSink {
	if shards <= 1 {
		return serialShardSink{fj.NewDetectorSink(16)}
	}
	return fj.NewShardedDetectorSink(16, 64, shards, core.StorageOpenAddr, 0)
}

// finishSink flushes a sharded sink's workers; the serial sink needs no
// finishing.
func finishSink(d shardSink) {
	if f, ok := d.(interface{ Finish() }); ok {
		f.Finish()
	}
}

// e16 measures shard scaling, asserting verdict parity and accounting
// on every cell. It returns the measured cells and a process exit code
// (non-zero when parity, accounting, or the -checkallocs gate failed).
func e16(quick, checkAllocs bool) ([]shardCell, int) {
	tr := shardTrace(quick)

	// Serial baseline verdict, shared by every cell's parity check.
	base := serialShardSink{fj.NewDetectorSink(16)}
	tr.Replay(base)
	baseRaces := base.Races()
	baseStats := base.Stats()

	target := 300 * time.Millisecond
	if quick {
		target = 30 * time.Millisecond
	}

	var cells []shardCell
	code := 0
	for _, shards := range []int{1, 2, 4, 8} {
		// Estimate reps from one warm replay, then time each rep on a
		// fresh sink and summarize by the median.
		runtime.GC()
		warm := time.Now()
		d := newShardCellSink(shards)
		tr.Replay(d)
		finishSink(d)
		est := time.Since(warm)
		reps := 2
		if est > 0 {
			if r := int(target / est); r > reps {
				reps = r
			}
		}
		if reps > 200 {
			reps = 200
		}
		durs := make([]time.Duration, reps)
		for i := range durs {
			rep := newShardCellSink(shards)
			t0 := time.Now()
			tr.Replay(rep)
			finishSink(rep)
			durs[i] = time.Since(t0)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		med := durs[len(durs)/2]

		// Parity and accounting on the warm run's verdict.
		st := d.Stats()
		races := d.Races()
		if len(races) != len(baseRaces) || d.Count() != base.Count() {
			fmt.Fprintf(os.Stderr, "bench: shards=%d: %d races (count %d), serial %d (count %d)\n",
				shards, len(races), d.Count(), len(baseRaces), base.Count())
			code = 1
		} else {
			for i := range baseRaces {
				if races[i] != baseRaces[i] {
					fmt.Fprintf(os.Stderr, "bench: shards=%d: race %d = %v, serial %v\n",
						shards, i, races[i], baseRaces[i])
					code = 1
					break
				}
			}
		}
		if err := d.CheckAccounting(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: shards=%d: accounting: %v\n", shards, err)
			code = 1
		}

		c := shardCell{
			Shards:             shards,
			Events:             len(tr.Events),
			MemOps:             baseStats.MemOps(),
			GoMaxProcs:         runtime.GOMAXPROCS(0),
			NsPerEvent:         float64(med.Nanoseconds()) / float64(len(tr.Events)),
			EventsPerSec:       float64(len(tr.Events)) / med.Seconds(),
			CrossShardHandoffs: st.CrossShardHandoffs,
			ShardStalls:        st.ShardStalls,
			ShardEventsMax:     st.ShardEventsMax,
			Racy:               d.Racy(),
		}

		// The -checkallocs gate holds the production default (1 shard =
		// the serial detector) to zero steady-state allocations; the
		// serial sink is reusable, so cold-then-steady works here.
		if shards == 1 {
			steady := fj.NewDetectorSink(16)
			tr.Replay(steady) // cold: builds tables
			c.AllocsPerReplaySteady = steadyReplayAllocs(tr, steady)
			if checkAllocs && c.AllocsPerReplaySteady != 0 {
				fmt.Fprintf(os.Stderr, "bench: shards=1 steady replay allocated %d times, want 0\n",
					c.AllocsPerReplaySteady)
				code = 1
			}
		}
		cells = append(cells, c)
	}

	serialNs := cells[0].NsPerEvent
	for i := range cells {
		cells[i].Speedup = serialNs / cells[i].NsPerEvent
	}

	w := table(fmt.Sprintf("\nE16 shard scaling: %d events, %d memops, GOMAXPROCS=%d",
		len(tr.Events), baseStats.MemOps(), runtime.GOMAXPROCS(0)))
	fmt.Fprintln(w, "shards\tns/event\tMevents/s\tspeedup\thandoffs\tstalls\tshard-events-max\tracy")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%.1f\t%.2f\t%.2fx\t%d\t%d\t%d\t%v\n",
			c.Shards, c.NsPerEvent, c.EventsPerSec/1e6, c.Speedup,
			c.CrossShardHandoffs, c.ShardStalls, c.ShardEventsMax, c.Racy)
	}
	w.Flush()
	return cells, code
}

// steadyReplayRuns is how many warm replays steadyReplayAllocs
// averages over.
const steadyReplayRuns = 10

// steadyReplayAllocs is the allocations per replay of tr into a warmed
// sink. Go's malloc counter is process-wide, and the runtime's own
// background work allocates now and then: with no application goroutine
// running, a single before/after read around one replay caught a 96-byte
// object allocated while a GC cycle finished mid-replay, and lone
// 16-byte objects. So, like testing.AllocsPerRun, it starts from a
// finished GC, runs at GOMAXPROCS 1, and averages over several replays
// rounding down: a stray allocation vanishes, a replay that allocates
// every time still reports at least 1.
func steadyReplayAllocs(tr *fj.Trace, sink fj.Sink) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range steadyReplayRuns {
		tr.Replay(sink)
	}
	runtime.ReadMemStats(&ms1)
	return (ms1.Mallocs - ms0.Mallocs) / steadyReplayRuns
}
