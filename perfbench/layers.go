package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"

	race2d "repro"
)

// Layer replays: the traced run re-runs a layer's public function on
// the workload's own inputs, alone, to time what no outside span can
// isolate inside a live session.

// replayBudget is how long each replay loop runs at least.
const replayBudget = 200 * time.Millisecond

// frameCuts splits events the way a client session does when it is fed
// one EventBatch and then flushed: DefaultFrameEvents per frame, the
// remainder in a final short frame.
func frameCuts(events []fj.Event) [][]fj.Event {
	var cuts [][]fj.Event
	for len(events) > 0 {
		n := min(client.DefaultFrameEvents, len(events))
		cuts = append(cuts, events[:n])
		events = events[n:]
	}
	return cuts
}

// wireReplay encodes each trace with a fresh BlockEncoder over the
// session's exact frame cuts (sequence numbers from 1, as on a fresh
// connection), then decodes the blocks with a fresh BlockDecoder. It
// returns encode and decode ns/event and fails if a block does not
// decode to its frame.
func wireReplay(cases []*traceCase) (encNs, decNs float64, err error) {
	var encTotal, decTotal time.Duration
	var events int
	for first := true; first || encTotal+decTotal < replayBudget; first = false {
		for _, tc := range cases {
			cuts := frameCuts(tc.tr.Events)
			var enc wire.BlockEncoder
			buf := make([]byte, 0, len(tc.tr.Events)*4)
			ends := make([]int, 0, len(cuts))
			t0 := time.Now()
			for i, c := range cuts {
				buf = enc.AppendBlock(buf, uint64(i+1), c)
				ends = append(ends, len(buf))
			}
			encTotal += time.Since(t0)

			var dec wire.BlockDecoder
			slab := make([]fj.Event, 0, client.DefaultFrameEvents)
			from := 0
			t1 := time.Now()
			for i, end := range ends {
				var seq uint64
				seq, slab, _, err = dec.DecodeBlockInto(slab[:0], buf[from:end])
				if err != nil || seq != uint64(i+1) || len(slab) != len(cuts[i]) {
					return 0, 0, fmt.Errorf("wire replay: block %d of %s does not round-trip (%v)", i+1, tc.class, err)
				}
				from = end
			}
			decTotal += time.Since(t1)
			events += len(tc.tr.Events)
		}
	}
	return float64(encTotal) / float64(events), float64(decTotal) / float64(events), nil
}

// detectReplay runs each trace through a fresh 2D engine sink with
// per-event delivery — the server consumer's call pattern — and returns
// ns/event.
func detectReplay(cases []*traceCase) float64 {
	var total time.Duration
	var events int
	for first := true; first || total < replayBudget; first = false {
		for _, tc := range cases {
			d := race2d.NewEngineSink(race2d.Engine2D)
			t0 := time.Now()
			tc.tr.Replay(d)
			total += time.Since(t0)
			events += len(tc.tr.Events)
		}
	}
	return float64(total) / float64(events)
}

// bareLogPuts persists recs into a fresh fsync'd Log in dir and returns
// each Put's duration in microseconds — the unreplicated cost of the
// same records the replicated store took.
func bareLogPuts(dir string, recs []store.Record) ([]float64, error) {
	lg, err := store.OpenLog(store.LogConfig{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("bare log: %w", err)
	}
	out := make([]float64, 0, len(recs))
	for _, rec := range recs {
		rec.Unix = 0
		t0 := time.Now()
		if err := lg.Put(rec); err != nil {
			lg.Close()
			return nil, fmt.Errorf("bare log put: %w", err)
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, lg.Close()
}

// perMemop divides exact operation counts summed over verdicts by their
// memory operations.
func perMemop(st obs.Stats) (finds, unions, steps, probes float64) {
	m := float64(st.MemOps())
	if m == 0 {
		return 0, 0, 0, 0
	}
	return float64(st.Finds) / m, float64(st.Unions) / m, float64(st.PathSteps) / m, float64(st.TableProbes) / m
}

func addCounts(dst *obs.Stats, src obs.Stats) {
	dst.Reads += src.Reads
	dst.Writes += src.Writes
	dst.Finds += src.Finds
	dst.Unions += src.Unions
	dst.PathSteps += src.PathSteps
	dst.TableProbes += src.TableProbes
}

// reportSample is how many sessions per traced window keep their
// Report for the Report.WriteJSON replay.
const reportSample = 64

// sessionLayers fills the layer metrics every client/server workload
// shares from its sessions, the wrappers, and the replays.
func sessionLayers(l map[string]float64, t *tracer, recs []sessionRec, srvStats obs.Stats, cases []*traceCase) error {
	var dial, send, finish, fetch, encode []float64
	var reconnects uint64
	var counts obs.Stats
	var reportBytes, frames, ok float64
	var wallNs float64
	viaGateway := map[uint64]bool{} // every successful session's token; false for hop samples
	for i := range recs {
		r := &recs[i]
		reconnects += r.reconnects
		if r.err != nil {
			continue
		}
		viaGateway[r.token] = !r.direct
		if r.direct {
			continue
		}
		ok++
		dial = append(dial, ms(r.dialed.Sub(r.start)))
		send = append(send, ms(r.sent.Sub(r.dialed)))
		finish = append(finish, ms(r.finished.Sub(r.sent)))
		if r.fetchErr == nil {
			fetch = append(fetch, ms(r.fetchEnd.Sub(r.fetchStart)))
		}
		if r.rep != nil {
			t0 := time.Now()
			if err := r.rep.WriteJSON(io.Discard, nil); err != nil {
				return fmt.Errorf("report encode: %w", err)
			}
			encode = append(encode, us(time.Since(t0)))
			r.rep = nil
		}
		reportBytes += float64(r.reportBytes)
		frames += math.Ceil(float64(r.events) / client.DefaultFrameEvents)
		wallNs += float64(r.finished.Sub(r.start))
		addCounts(&counts, r.stats)
	}
	if ok == 0 {
		return fmt.Errorf("no successful session to attribute")
	}
	l["client.dial_ms_p50"] = median(dial)
	l["client.send_ms"] = median(send)
	l["client.finish_wait_ms_p50"] = median(finish)
	l["client.finish_wait_ms_p99"] = percentile(finish, 99)
	l["client.fetch_ms_p50"] = median(fetch)
	l["client.reconnects"] = float64(reconnects)

	encNs, decNs, err := wireReplay(cases)
	if err != nil {
		return err
	}
	l["wire.encode_ns_per_event"] = encNs
	l["wire.decode_ns_per_event"] = decNs
	l["wire.frames_per_session"] = frames / ok

	var reads, writes, readNs float64
	var writeMs []float64
	for token, c := range t.sessionConns() {
		gw, ok := viaGateway[token]
		if !ok {
			continue
		}
		// Frames counts every session's event frames, so reads and
		// writes count every session's connection too.
		reads += float64(c.Reads)
		writes += float64(c.Writes)
		if gw {
			readNs += float64(c.ReadNs)
			writeMs = append(writeMs, float64(c.WriteNs)/1e6)
		}
	}
	if srvStats.Frames > 0 {
		l["server.conn_reads_per_frame"] = reads / float64(srvStats.Frames)
		l["server.conn_writes_per_frame"] = writes / float64(srvStats.Frames)
	}
	l["server.read_wait_frac"] = readNs / wallNs
	l["server.write_ms"] = median(writeMs)
	l["server.producer_stalls"] = float64(srvStats.ProducerStalls)
	l["server.max_queue_depth"] = float64(srvStats.MaxQueueDepth)

	l["detect.ns_per_event"] = detectReplay(cases)
	l["detect.finds_per_memop"], l["detect.unions_per_memop"],
		l["detect.path_steps_per_memop"], l["detect.table_probes_per_memop"] = perMemop(counts)

	l["report.encode_us_p50"] = median(encode)
	l["report.bytes"] = reportBytes / ok

	puts := t.spanDurations("store.put")
	for i := range puts {
		puts[i] *= 1000 // ms -> us
	}
	gets := t.spanDurations("store.get")
	for i := range gets {
		gets[i] *= 1000
	}
	l["store.put_us_p50"] = median(puts)
	l["store.put_us_p99"] = percentile(puts, 99)
	l["store.get_us_p50"] = median(gets)
	t.mu.Lock()
	l["store.put_failures"] = float64(t.putErrs)
	t.mu.Unlock()
	return nil
}
