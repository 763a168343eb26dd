// Command perfbench is the repository benchmark. It runs one of three
// workloads in-process against the real layers — client, server,
// cluster gateway, durable store, replication, wire codec and the 2D
// detector — checks every verdict, and prints one JSON result line:
//
//	perfbench --workload stream|verdicts|replay --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// it holds the per-layer metrics of a traced run, which times each layer
// from outside (spans around client calls, wrappers around the server's
// listener and report store, replays of layer functions on the
// workload's own inputs) and compares its end-to-end numbers with an
// untraced pass to state the tracing overhead. --selfcheck runs every
// workload at a tiny scale in both modes and checks the metric set
// against BENCHMARK.json. See README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric with its unit and, for a per-layer metric,
// the end-to-end metric and workload it should move.
type metricDef struct{ name, unit, moves string }

var e2eMetrics = []metricDef{
	{"events_per_s", "events/s", ""},
	{"session_ms_p50", "ms", ""},
	{"sessions_per_s", "sessions/s", ""},
	{"wire_bytes_per_event", "B/event", ""},
	{"setup_s", "s", ""},
	{"peak_heap_mb", "MiB", ""},
}

// recordedMetrics are measured in every untraced pass but only recorded
// in the run record: their run-to-run spread on a 2-vCPU host is wider
// than any bound worth having (the session tail follows host stalls; the
// fetch time has two modes, so its median jumps between them).
var recordedMetrics = []metricDef{
	{"session_ms_p99", "ms", ""},
	{"fetch_ms_p50", "ms", ""},
}

var layerMetrics = []metricDef{
	{"client.dial_ms_p50", "ms", "session_ms_p50 on verdicts"},
	{"client.send_ms", "ms", "events_per_s on stream"},
	{"client.finish_wait_ms_p50", "ms", "session_ms_p50 on verdicts"},
	{"client.finish_wait_ms_p99", "ms", "session_ms_p99 on verdicts"},
	{"client.fetch_ms_p50", "ms", "fetch_ms_p50 on verdicts"},
	{"client.reconnects", "count", "failures on every workload; must stay 0"},
	{"wire.encode_ns_per_event", "ns/event", "events_per_s on stream"},
	{"wire.decode_ns_per_event", "ns/event", "events_per_s on stream"},
	{"wire.frames_per_session", "frames", "events_per_s on stream"},
	{"server.conn_reads_per_frame", "reads/frame", "events_per_s on stream"},
	{"server.conn_writes_per_frame", "writes/frame", "events_per_s on stream"},
	{"server.read_wait_frac", "frac", "events_per_s on stream (client- or server-bound)"},
	{"server.write_ms", "ms", "session_ms_p50 on verdicts"},
	{"server.producer_stalls", "count", "events_per_s on stream"},
	{"server.max_queue_depth", "events", "events_per_s on stream"},
	{"detect.ns_per_event", "ns/event", "events_per_s on replay and stream"},
	{"detect.finds_per_memop", "finds/memop", "events_per_s on replay"},
	{"detect.unions_per_memop", "unions/memop", "events_per_s on replay"},
	{"detect.path_steps_per_memop", "steps/memop", "events_per_s on replay"},
	{"detect.table_probes_per_memop", "probes/memop", "events_per_s on replay"},
	{"report.encode_us_p50", "us", "session_ms_p50 on verdicts"},
	{"report.bytes", "B", "session_ms_p50 and wire_bytes_per_event on verdicts"},
	{"store.put_us_p50", "us", "session_ms_p99 on verdicts"},
	{"store.put_us_p99", "us", "session_ms_p99 on verdicts"},
	{"store.get_us_p50", "us", "fetch_ms_p50 on verdicts"},
	{"store.put_failures", "count", "failures on verdicts; must stay 0"},
	{"store.open_ms", "ms", "setup_s on verdicts"},
	{"repl.sync_us_p50", "us", "session_ms_p99 on verdicts"},
	{"repl.degraded_events", "count", "must stay 0 on verdicts"},
	{"cluster.hop_ms_p50", "ms", "session_ms_p50 on verdicts"},
	{"cluster.fetch_fanouts", "count", "fetch_ms_p50 on verdicts"},
	{"runtime.alloc_bytes_per_event", "B/event", "events_per_s on stream"},
	{"runtime.gc_cpu_frac", "frac", "events_per_s on stream"},
	{"unattributed_frac", "frac", "share of session wall time no layer span covers"},
	{"trace.overhead_frac", "frac", "traced minus untraced primary metric, over untraced"},
}

func layerNames() []string {
	out := make([]string, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = m.name
	}
	return out
}

// primaryMetric is, per workload, the end-to-end metric the tracing
// overhead is stated on, and whether higher is better.
var primaryMetric = map[string]struct {
	name   string
	higher bool
}{
	"stream":   {"events_per_s", true},
	"verdicts": {"session_ms_p50", false},
	"replay":   {"events_per_s", true},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	sz        sizes
	dir       string // scratch directory inside the checkout
	nproc     int
	setupReps int
	rate      float64 // verdicts offered load, sessions/s
}

func (c *runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// window is one measured pass of a workload.
type window struct {
	e2e               map[string]float64
	layer             map[string]float64 // traced passes only
	attempted, failed int64
	firstErr          error
	invalid           string
	notes             map[string]any
}

type bench interface {
	// window sets the system up (several times, timed, each tear-down
	// checked for leaked goroutines), drives the load for the configured
	// seconds, checks verdicts and tears down. t is nil when untraced.
	window(t *tracer) (*window, error)
}

// measure runs one window from a collected heap, so the garbage input
// generation (or an earlier window) left behind is not swept on the
// clock of the set-up or the load.
func measure(b bench, t *tracer) (*window, error) {
	runtime.GC()
	return b.window(t)
}

// leakGuard remembers the goroutine count before a set-up.
type leakGuard struct{ base int }

func newLeakGuard() leakGuard { return leakGuard{base: runtime.NumGoroutine()} }

func (g leakGuard) check(what string) error {
	if n, ok := waitGoroutines(g.base, 5*time.Second); !ok {
		return fmt.Errorf("%s: %d goroutines still running, %d before set-up", what, n, g.base)
	}
	return nil
}

// setupReps sets up k times and keeps the last system; every earlier
// one is torn down and checked for leaks. It returns the median set-up
// time in seconds.
func setupReps[T any](k int, guard leakGuard, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var zero T
	var times []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		sys, err := setup()
		if err != nil {
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == k-1 {
			return sys, median(times), nil
		}
		if err := teardown(sys); err != nil {
			return zero, 0, fmt.Errorf("tear-down between set-ups: %w", err)
		}
		if err := guard.check("tear-down between set-ups"); err != nil {
			return zero, 0, err
		}
	}
	return zero, 0, errors.New("set-up: no repetitions")
}

func newBench(cfg *runConfig) (bench, error) {
	switch cfg.workload {
	case "stream":
		cases, err := streamCases(cfg.seed, cfg.sz)
		if err != nil {
			return nil, err
		}
		return &streamBench{cfg: cfg, cases: cases}, nil
	case "verdicts":
		cases, err := verdictCases(cfg.seed, cfg.sz)
		if err != nil {
			return nil, err
		}
		return &verdictsBench{cfg: cfg, cases: cases}, nil
	case "replay":
		cases, err := streamCases(cfg.seed, cfg.sz)
		if err != nil {
			return nil, err
		}
		b := &replayBench{cfg: cfg, cases: cases}
		return b, b.record()
	}
	return nil, fmt.Errorf("unknown workload %q (want stream, verdicts or replay)", cfg.workload)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is a finished invocation: the result line plus the record of
// how it ran.
type outcome struct {
	res    result
	record map[string]any
	errs   []string
}

func execute(cfg *runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{record: runRecord(cfg)}
	w, err := measure(b, nil)
	if err != nil {
		return nil, err
	}
	o.absorb(w)
	for _, d := range recordedMetrics {
		o.record[d.name] = w.e2e[d.name]
	}
	values, defs := w.e2e, e2eMetrics
	if cfg.traced {
		t := newTracer()
		tw, err := measure(b, t)
		if err != nil {
			return nil, err
		}
		o.absorb(tw)
		attr := t.attribute()
		if attr.overflows > 0 {
			o.errs = append(o.errs, fmt.Sprintf("%d sessions have layer self times past their wall time", attr.overflows))
		}
		tw.layer["unattributed_frac"] = attr.unattributedFrac()
		p := primaryMetric[cfg.workload]
		base, traced := w.e2e[p.name], tw.e2e[p.name]
		over := (traced - base) / base
		if p.higher {
			over = (base - traced) / base
		}
		tw.layer["trace.overhead_frac"] = over
		o.record["untraced"] = w.e2e
		o.record["traced"] = tw.e2e
		o.record["attributed_sessions"] = attr.sessions
		values, defs = tw.layer, layerMetrics
		spans := filepath.Join(".bench_build", "spans")
		if err := os.MkdirAll(spans, 0o755); err == nil {
			path := filepath.Join(spans, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
			if err := t.dump(path); err != nil {
				o.errs = append(o.errs, "writing spans: "+err.Error())
			} else {
				o.record["spans"] = path
			}
		}
	}
	o.res.Metrics = map[string]metricOut{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.errs = append(o.errs, fmt.Sprintf("metric %s missing or not finite", d.name))
			v = 0
		}
		o.res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if o.res.Attempted > 0 {
		o.record["failed_frac"] = float64(o.res.Failed) / float64(o.res.Attempted)
	}
	if err := checkDeclared("BENCHMARK.json", cfg.traced, o.res.Metrics); err != nil {
		o.errs = append(o.errs, err.Error())
	}
	o.res.Correct = o.res.Failed == 0 && len(o.errs) == 0
	if len(o.errs) > 0 {
		o.record["errors"] = o.errs
	}
	return o, nil
}

// absorb folds one window's counts, notes and validity into the outcome.
func (o *outcome) absorb(w *window) {
	o.res.Attempted += w.attempted
	o.res.Failed += w.failed
	if w.firstErr != nil {
		o.errs = append(o.errs, w.firstErr.Error())
	}
	if w.invalid != "" {
		o.errs = append(o.errs, "invalid run: "+w.invalid)
	}
	for k, v := range w.notes {
		o.record[k] = v
	}
}

// runRecord describes how the run was made.
func runRecord(cfg *runConfig) map[string]any {
	rec := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      "unknown",
		"source_hash": sourceHash("."),
		"fsync":       cfg.workload == "verdicts",
	}
	if cfg.workload == "verdicts" {
		rec["offered_rate"] = cfg.rate
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rec["commit"] = s.Value
			}
		}
	}
	return rec
}

// sourceHash digests the Go sources and module files under root, so a
// result names the code it measured even where no VCS metadata exists.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDeclared compares the emitted metrics with the ones path
// declares, name for name and unit for unit.
func checkDeclared(path string, traced bool, got map[string]metricOut) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	var problems []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, m.Name+" not emitted")
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, declared %q", m.Name, g.Unit, m.Unit))
		}
	}
	if len(got) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics emitted, %d declared", len(got), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s: %s", path, strings.Join(problems, "; "))
	}
	return nil
}

// print writes the human-readable table and the run record, then the
// result as the last line.
func (o *outcome) print(w io.Writer, traced bool) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		m := o.res.Metrics[d.name]
		line := fmt.Sprintf("%-32s %16.6g %s", d.name, m.Value, m.Unit)
		if d.moves != "" {
			line += "   -> " + d.moves
		}
		fmt.Fprintln(w, line)
	}
	if !traced {
		for _, d := range recordedMetrics {
			fmt.Fprintf(w, "%-32s %16.6g %s   (recorded, no bound)\n", d.name, o.record[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "%-32s %16.6g   (failed / attempted)\n", "failed_frac", o.record["failed_frac"])
	rec, _ := json.Marshal(map[string]any{"run": o.record})
	fmt.Fprintln(w, string(rec))
	res, _ := json.Marshal(o.res)
	fmt.Fprintln(w, string(res))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "stream, verdicts or replay")
	seed := fl.Int64("seed", 1, "input seed: the same seed makes the same inputs")
	seconds := fl.Float64("seconds", 10, "measured window of one pass, in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	selfcheck := fl.Bool("selfcheck", false, "run every workload tiny, traced and not, and check the metric set")
	capacity := fl.Bool("capacity", false, "measure the closed-loop session capacity of the verdicts fleet")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := &runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		sz: fullSizes, nproc: nproc, rate: verdictsRate,
		dir: filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
	}
	cfg.setupReps = map[string]int{"stream": 41, "verdicts": 5, "replay": 5}[cfg.workload]
	switch {
	case *selfcheck:
		return runSelfcheck(stdout)
	case *capacity:
		return runCapacity(cfg, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	o, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.print(stdout, cfg.traced)
	if !o.res.Correct {
		for _, e := range o.errs {
			fmt.Fprintln(stderr, "perfbench:", e)
		}
		return 1
	}
	return 0
}

// runSelfcheck runs every workload at the tiny scale in both modes and
// fails unless each emits exactly the declared metrics with their units,
// every verdict checks out, and the traced attribution stays within
// session wall time.
func runSelfcheck(stdout io.Writer) int {
	failed := false
	for _, wl := range []string{"stream", "verdicts", "replay"} {
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{
				workload: wl, seed: 7, seconds: 1, traced: traced, sz: tinySizes,
				nproc: runtime.NumCPU(), rate: 40, setupReps: 2,
				dir: filepath.Join(".bench_build", "run", fmt.Sprintf("selfcheck-%s-%d", wl, os.Getpid())),
			}
			o, err := execute(cfg)
			status := "ok"
			switch {
			case err != nil:
				status = "FAIL: " + err.Error()
			case !o.res.Correct:
				status = "FAIL: " + strings.Join(o.errs, "; ")
			case o.res.Attempted == 0:
				status = "FAIL: nothing attempted"
			}
			if status != "ok" {
				failed = true
			}
			fmt.Fprintf(stdout, "selfcheck %-8s trace=%v: %s\n", wl, traced, status)
		}
	}
	if failed {
		return 1
	}
	return 0
}
