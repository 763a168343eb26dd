// The E15 experiment: fault-tolerant streaming under injected chaos.
// One session streams a recorded trace to an in-process raced server
// whose listener corrupts, drops, delays, truncates and resets the
// transport at a swept fault rate (internal/faults, deterministic
// seed). The client rides the faults out — reconnect,
// resume, resend — so every cell must still land on the clean-run
// verdict; what the sweep measures is the throughput an operator gives
// up for a given transport fault rate, and how much recovery work
// (reconnects, resent batches, duplicate discards) buys it.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"repro/client"
	"repro/internal/faults"
	"repro/internal/fj"
	"repro/internal/server"

	race2d "repro"
)

// chaosCell is one measured fault-rate point, serialized into
// BENCH_race2d.json under "chaos".
type chaosCell struct {
	Rate   float64 `json:"fault_rate"` // per-I/O fault probability
	Events int     `json:"events"`

	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_s"`
	Slowdown     float64 `json:"slowdown_vs_clean"`

	// Client- and server-side recovery accounting for the run.
	Reconnects       uint64 `json:"reconnects"`
	Resends          uint64 `json:"resends"`
	Resumes          uint64 `json:"resumes"`
	DupsDropped      uint64 `json:"dups_dropped"`
	HeartbeatsMissed uint64 `json:"heartbeats_missed"`

	Racy bool `json:"racy"`
}

// runChaosCell streams tr once through a server whose transport faults
// at the given rate, asserts verdict parity with the clean baseline,
// and returns the wall time plus both sides' recovery counters.
func runChaosCell(tr *fj.Trace, rate float64, baseline *race2d.Report) (time.Duration, chaosCell) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: chaos: %v", err))
	}
	if rate > 0 {
		ln = faults.New(faults.Config{
			Seed:     17,
			Classes:  faults.All,
			Rate:     rate,
			MaxDelay: 500 * time.Microsecond,
		}).Listener(ln)
	}
	srv := server.New(server.Config{ResumeWindow: time.Minute})
	go srv.Serve(ln)
	defer srv.Close()

	start := time.Now()
	sess, err := client.Dial(ln.Addr().String(),
		// Small wire frames: each frame is an I/O operation the injector
		// can fault, so the sweep's per-I/O rate translates into a
		// meaningful number of faults even for modest traces.
		client.WithFrameEvents(128),
		client.WithDialTimeout(250*time.Millisecond),
		client.WithFinishTimeout(2*time.Minute),
		client.WithHeartbeat(50*time.Millisecond, 2),
		client.WithMaxAttempts(500),
		client.WithBackoff(time.Millisecond, 20*time.Millisecond),
		client.WithRetainAll(),
	)
	if err != nil {
		panic(fmt.Sprintf("bench: chaos rate=%g: dial: %v", rate, err))
	}
	defer sess.Close()
	sess.EventBatch(tr.Events)
	rep, err := sess.Finish()
	if err != nil {
		panic(fmt.Sprintf("bench: chaos rate=%g: %v", rate, err))
	}
	wall := time.Since(start)
	if rep.Count != baseline.Count || rep.Stats.MemOps() != baseline.Stats.MemOps() ||
		rep.Locations != baseline.Locations {
		panic(fmt.Sprintf("bench: chaos rate=%g: remote verdict (races=%d memops=%d locs=%d) != clean (races=%d memops=%d locs=%d)",
			rate, rep.Count, rep.Stats.MemOps(), rep.Locations,
			baseline.Count, baseline.Stats.MemOps(), baseline.Locations))
	}
	cst, sst := sess.Stats(), srv.Stats()
	return wall, chaosCell{
		Rate:             rate,
		Events:           len(tr.Events),
		Reconnects:       cst.Reconnects,
		Resends:          cst.Resends,
		HeartbeatsMissed: cst.HeartbeatsMissed,
		Resumes:          sst.Resumes,
		DupsDropped:      sst.DupsDropped,
		Racy:             baseline.Count > 0,
	}
}

// chaosCells measures the E15 sweep.
func chaosCells(quick bool) []chaosCell {
	rates := []float64{0, 0.001, 0.005, 0.02}
	if quick {
		// The quick trace is tiny (few wire I/Os), so sweep higher rates
		// to still observe recovery behavior.
		rates = []float64{0, 0.02, 0.1}
	}
	tr := serveTrace(quick)

	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	baseline := d.Report()

	var cells []chaosCell
	var clean time.Duration
	for _, rate := range rates {
		wall, cell := runChaosCell(tr, rate, baseline)
		if rate == 0 {
			clean = wall
		}
		cell.WallMs = float64(wall.Microseconds()) / 1e3
		cell.EventsPerSec = float64(cell.Events) / wall.Seconds()
		if clean > 0 {
			cell.Slowdown = float64(wall) / float64(clean)
		}
		cells = append(cells, cell)
	}
	return cells
}

// e15 prints the chaos-throughput table (EXPERIMENTS E15) and returns
// the cells for BENCH_race2d.json.
func e15(quick bool) []chaosCell {
	cells := chaosCells(quick)
	w := table("\nE15: fault-tolerant streaming — throughput vs injected transport fault rate (all classes)")
	fmt.Fprintln(w, "fault rate\tevents\twall ms\tMevents/s\tslowdown\treconnects\tresends\tresumes\tdups dropped\tracy")
	for _, c := range cells {
		fmt.Fprintf(w, "%g\t%d\t%.1f\t%.2f\t%.2fx\t%d\t%d\t%d\t%d\t%v\n",
			c.Rate, c.Events, c.WallMs, c.EventsPerSec/1e6, c.Slowdown,
			c.Reconnects, c.Resends, c.Resumes, c.DupsDropped, c.Racy)
	}
	w.Flush()
	return cells
}

// mergeChaos lands freshly measured chaos cells in jsonPath without
// disturbing the rest of the document, so a standalone `-e 15` updates
// BENCH_race2d.json in place (creating a minimal document when absent).
func mergeChaos(jsonPath string, cells []chaosCell) error {
	doc := map[string]any{}
	if data, err := os.ReadFile(jsonPath); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("bench: %s: %w", jsonPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc["chaos"] = cells
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (chaos cells)\n", jsonPath)
	return nil
}
