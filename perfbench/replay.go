package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fj"

	race2d "repro"
)

// replayBench is the `replay` workload: no service, one goroutine, the
// 2D engine replaying the same traces as `stream` along the path the
// race2d CLI takes for a recorded trace — load (read, decode, validate),
// then detect with per-event delivery and render the Report as JSON.
type replayBench struct {
	cfg   *runConfig
	cases []*traceCase
	files []string
	bytes int64 // recorded trace bytes across files
}

// record writes each trace in the binary trace format the CLI reads.
func (b *replayBench) record() error {
	for _, tc := range b.cases {
		var buf bytes.Buffer
		if err := tc.tr.Encode(&buf); err != nil {
			return fmt.Errorf("record %s: %w", tc.class, err)
		}
		path := filepath.Join(b.cfg.dir, "trace-"+tc.class+".bin")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		b.files = append(b.files, path)
		b.bytes += int64(buf.Len())
	}
	return nil
}

// load is the replay set-up: read every recorded trace, decode it and
// validate it, as the CLI does before detecting.
func (b *replayBench) load() ([]*fj.Trace, error) {
	var out []*fj.Trace
	for _, path := range b.files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		tr, err := fj.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := fj.ValidateTrace(tr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

func (b *replayBench) window(t *tracer) (*window, error) {
	guard := newLeakGuard()
	traces, setupS, err := setupReps(b.cfg.setupReps, guard, b.load, func([]*fj.Trace) error { return nil })
	if err != nil {
		return nil, err
	}

	heap := startHeapSampler()
	rt0 := readRuntime()
	w := &window{notes: map[string]any{}}
	byClass, renderByClass := map[string][]float64{}, map[string][]float64{}
	var encodeUs []float64
	var opNs, detectNs, events, reportBytes float64
	var counts race2d.Stats
	var out, compact bytes.Buffer
	deadline := time.Now().Add(b.cfg.window())
	for j := 0; time.Now().Before(deadline); j++ {
		tc, tr := b.cases[j%len(b.cases)], traces[j%len(traces)]
		t0 := time.Now()
		d := race2d.NewEngineSink(race2d.Engine2D)
		tr.Replay(d)
		t1 := time.Now()
		rep := d.Report()
		out.Reset()
		err := rep.WriteJSON(&out, nil)
		t2 := time.Now()

		w.attempted++
		compact.Reset()
		if err == nil {
			err = json.Compact(&compact, out.Bytes())
		}
		if err == nil && !bytes.Equal(compact.Bytes(), tc.want) {
			err = fmt.Errorf("replayed verdict of %s differs from the generated one", tc.class)
		}
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		opNs += float64(t2.Sub(t0))
		detectNs += float64(t1.Sub(t0))
		events += float64(len(tr.Events))
		byClass[tc.class] = append(byClass[tc.class], ms(t2.Sub(t0)))
		renderByClass[tc.class] = append(renderByClass[tc.class], ms(t2.Sub(t1)))
		encodeUs = append(encodeUs, us(t2.Sub(t1)))
		reportBytes += float64(out.Len())
		addCounts(&counts, rep.Stats)
		if t != nil {
			id := sessionIDs.Add(1)
			t.clientSpan(id, 0, "session", "", t0, t2)
			t.clientSpan(id, 0, "detect", "session", t0, t1)
			t.clientSpan(id, 0, "report.encode", "session", t1, t2)
		}
	}
	rt1 := readRuntime()
	peak := heap.peakMiB()
	if err := guard.check("replay teardown"); err != nil {
		return nil, err
	}
	done := float64(len(encodeUs))
	if done == 0 {
		return nil, fmt.Errorf("replay: no successful replay (%v)", w.firstErr)
	}
	var traceEvents float64
	for _, tc := range b.cases {
		traceEvents += float64(len(tc.tr.Events))
	}
	w.e2e = map[string]float64{
		"events_per_s":         events / (opNs / 1e9),
		"session_ms_p50":       classPercentile(byClass, 50),
		"session_ms_p99":       classPercentile(byClass, 99),
		"fetch_ms_p50":         classPercentile(renderByClass, 50),
		"sessions_per_s":       done / (opNs / 1e9),
		"wire_bytes_per_event": float64(b.bytes) / traceEvents,
		"setup_s":              setupS,
		"peak_heap_mb":         peak,
	}
	w.notes["replays"] = done
	if t == nil {
		return w, nil
	}
	l := map[string]float64{}
	for _, name := range layerNames() {
		l[name] = 0 // no client, wire, server, store, replication or gateway here
	}
	l["detect.ns_per_event"] = detectNs / events
	l["detect.finds_per_memop"], l["detect.unions_per_memop"],
		l["detect.path_steps_per_memop"], l["detect.table_probes_per_memop"] = perMemop(counts)
	l["report.encode_us_p50"] = median(encodeUs)
	l["report.bytes"] = reportBytes / done
	alloc, gcFrac := rt1.since(rt0)
	l["runtime.alloc_bytes_per_event"] = alloc / events
	l["runtime.gc_cpu_frac"] = gcFrac
	w.layer = l
	return w, nil
}
