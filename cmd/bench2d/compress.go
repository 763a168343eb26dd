// The E17 experiment: wire compression end to end. One client session
// streams a recorded workload trace to an in-process raced server, and
// the cell records what the wire actually carried: bytes per event,
// throughput, and the compression ratio against the raw record form
// the server decoded the blocks to (its WireBytesRaw counter), so the
// bandwidth win and its CPU cost are measured on the same trace.
//
// Two workload shapes bound the sweep: the pipeline grid (regular
// fork-join structure — the compressible case the paper's traces look
// like) and the divide-and-conquer spawn tree. Verdict parity with an
// in-process replay is asserted on every cell.
//
// e17 is also the bandwidth regression gate: it fails when the
// compressed pipeline cell spends more than maxPipelineBytesPerEvent
// wire bytes per event, which is how CI catches a codec regression
// before it ships.
package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"

	race2d "repro"
)

// maxPipelineBytesPerEvent is the regression gate: the block codec must
// keep the compressed pipeline workload under this many wire bytes per
// event (the plain record form spends ~4.4).
const maxPipelineBytesPerEvent = 1.0

// compressCell is one measured workload, serialized into
// BENCH_race2d.json under "compress".
type compressCell struct {
	Workload   string `json:"workload"`
	Events     int    `json:"events"`
	GoMaxProcs int    `json:"gomaxprocs"`

	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_s"`

	// WireBytes is what the event stream occupied on the wire: the
	// block payloads.
	WireBytes     uint64  `json:"wire_bytes"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	// RawBytes is the raw record-form size the blocks decoded to, and
	// Ratio is RawBytes over WireBytes.
	RawBytes uint64  `json:"raw_bytes"`
	Ratio    float64 `json:"compress_ratio"`

	Racy bool `json:"racy"`
}

// compressFrameEvents is the transport batch e17 measures with: block
// compression works per batch, so the sweep uses batches that give the
// copy layer long runs and amortise each block's code headers, not the
// latency-tuned default.
const compressFrameEvents = 16384

// compressTraces builds the two workload shapes the sweep measures.
func compressTraces(quick bool) map[string]*fj.Trace {
	items := 1200
	if quick {
		items = 60
	}
	pipe := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 8, Items: items, Shared: true, Payload: 4}).Run(pipe); err != nil {
		panic(fmt.Sprintf("bench: compress pipeline workload: %v", err))
	}
	return map[string]*fj.Trace{
		"pipeline":   pipe,
		"spawn-tree": spawnTreeTrace(quick),
	}
}

// spawnTreeTrace records a deterministic divide-and-conquer spawn tree:
// a balanced binary fork tree whose leaves each scan a private chunk
// (write then read back) and read one shared location — the shape of a
// recursive array computation, and the regular structure the delta
// layer is built to exploit.
func spawnTreeTrace(quick bool) *fj.Trace {
	depth := 11 // 2048 leaves
	if quick {
		depth = 6
	}
	const leafSpan = 32
	const chunkBase = fj.Addr(1 << 22)
	tr := &fj.Trace{}
	var body func(t *fj.Task, d, idx int)
	body = func(t *fj.Task, d, idx int) {
		if d == 0 {
			base := chunkBase + fj.Addr(idx*leafSpan)
			for k := 0; k < leafSpan; k++ {
				t.Write(base + fj.Addr(k))
				t.Read(base + fj.Addr(k))
			}
			t.Read(1)
			return
		}
		t.Fork(func(c *fj.Task) { body(c, d-1, 2*idx) })
		t.Fork(func(c *fj.Task) { body(c, d-1, 2*idx+1) })
		t.JoinLeft()
		t.JoinLeft()
	}
	if _, err := fj.Run(func(t *fj.Task) { body(t, depth, 0) }, tr, fj.Options{}); err != nil {
		panic(fmt.Sprintf("bench: compress spawn-tree workload: %v", err))
	}
	return tr
}

// runCompressCell streams tr through one session, asserts verdict
// parity against the in-process baseline, and returns the wall time
// plus the server's accounting.
func runCompressCell(tr *fj.Trace, baseline *race2d.Report) (time.Duration, obs.Stats) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: compress: %v", err))
	}
	srv := server.New(server.Config{})
	go srv.Serve(ln)
	defer srv.Close()

	start := time.Now()
	sess, err := client.Dial(ln.Addr().String(), client.WithFrameEvents(compressFrameEvents))
	if err != nil {
		panic(fmt.Sprintf("bench: compress: %v", err))
	}
	defer sess.Close()
	sess.EventBatch(tr.Events)
	rep, err := sess.Finish()
	if err != nil {
		panic(fmt.Sprintf("bench: compress: %v", err))
	}
	wall := time.Since(start)
	if rep.Count != baseline.Count || rep.Stats.MemOps() != baseline.Stats.MemOps() ||
		rep.Locations != baseline.Locations {
		panic(fmt.Sprintf("bench: compress: remote verdict (races=%d memops=%d locs=%d) != local (races=%d memops=%d locs=%d)",
			rep.Count, rep.Stats.MemOps(), rep.Locations,
			baseline.Count, baseline.Stats.MemOps(), baseline.Locations))
	}
	st := srv.Stats()
	if st.WireBlocks == 0 {
		panic("bench: compress cell shipped no blocks")
	}
	return wall, st
}

// compressCells measures the E17 cells, one per workload.
func compressCells(quick bool) []compressCell {
	traces := compressTraces(quick)
	var cells []compressCell
	for _, name := range []string{"pipeline", "spawn-tree"} {
		tr := traces[name]
		d := race2d.NewEngineSink(race2d.Engine2D)
		tr.Replay(d)
		baseline := d.Report()
		// Best-of-5: the cells are milliseconds long, so on a busy host
		// the distribution has a long scheduling tail; the minimum
		// estimates the codec's actual cost.
		var st obs.Stats
		wall := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			w, s := runCompressCell(tr, baseline)
			if w < wall {
				wall, st = w, s
			}
		}
		cells = append(cells, compressCell{
			Workload:      name,
			Events:        len(tr.Events),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			WallMs:        float64(wall.Microseconds()) / 1e3,
			EventsPerSec:  float64(len(tr.Events)) / wall.Seconds(),
			WireBytes:     st.WireBytesBlocks,
			BytesPerEvent: float64(st.WireBytesBlocks) / float64(len(tr.Events)),
			RawBytes:      st.WireBytesRaw,
			Ratio:         st.CompressRatio(),
			Racy:          baseline.Count > 0,
		})
	}
	return cells
}

// e17 prints the wire-compression table (EXPERIMENTS E17), returns the
// cells for BENCH_race2d.json, and enforces the bandwidth gate: a
// non-zero code when the compressed pipeline cell exceeds
// maxPipelineBytesPerEvent.
func e17(quick bool) ([]compressCell, int) {
	cells := compressCells(quick)
	w := table(fmt.Sprintf("\nE17: wire compression — bytes/event and throughput, GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	fmt.Fprintln(w, "workload\tevents\twall ms\tMevents/s\twire KB\tbytes/event\traw bytes/event\tratio\tracy")
	for _, c := range cells {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.2f\t%.1f\t%.2f\t%.2f\t%.1fx\t%v\n",
			c.Workload, c.Events, c.WallMs, c.EventsPerSec/1e6,
			float64(c.WireBytes)/(1<<10), c.BytesPerEvent,
			float64(c.RawBytes)/float64(c.Events), c.Ratio, c.Racy)
	}
	w.Flush()
	code := 0
	for _, c := range cells {
		if c.Workload == "pipeline" && c.BytesPerEvent > maxPipelineBytesPerEvent {
			fmt.Fprintf(os.Stderr,
				"bench2d: e17 bandwidth gate: compressed pipeline spends %.2f bytes/event, budget %.2f\n",
				c.BytesPerEvent, maxPipelineBytesPerEvent)
			code = 1
		}
	}
	return cells, code
}
