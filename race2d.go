// Package race2d is a dynamic data-race detector for structured
// fork-join programs whose task graphs are two-dimensional lattices,
// reproducing "Race Detection in Two Dimensions" (Dimitrov, Vechev,
// Sarkar; SPAA 2015).
//
// The detector needs Θ(1) space per monitored memory location and per
// task, and near-constant (inverse-Ackermann) amortized time per memory
// operation — compared to the Θ(n)-per-location cost of vector-clock
// detectors — while handling strictly more programs than series-parallel
// detectors such as SP-bags: in particular, pipeline parallelism.
//
// # Quick start
//
//	report, err := race2d.Detect(func(t *race2d.Task) {
//		h := t.Fork(func(c *race2d.Task) { c.Write(1) })
//		t.Write(1) // races with the child's write
//		t.Join(h)
//	})
//	// report.Racy() == true
//
// Every frontend is configured through the same functional options:
//
//	report, err := race2d.Detect(body,
//		race2d.WithEngine(race2d.EngineVC),
//		race2d.WithContext(ctx),
//	)
//
// Programs follow the paper's restricted fork-join discipline: a forked
// task is placed immediately left of its parent in the task line, and a
// task may join only its immediate left neighbor (Figure 9). The runtime
// executes serially, fork-first, and reports violations of the discipline
// as errors. Cilk-style spawn/sync (DetectSpawnSync), X10-style
// async/finish (DetectAsyncFinish), linear pipelines (DetectPipeline),
// textual programs (DetectSource) and goroutine-based programs
// (DetectGoroutines) are provided as frontends that always stay inside
// the discipline. DetectGoroutines runs tasks truly concurrently: each
// task streams its events into a bounded queue and a merge stage
// linearizes them into the canonical fork-first order before they reach
// the single-consumer detector, so verdicts match the serial schedule's
// exactly (the Theorem 4 delayed-traversal contract; see internal/core).
package race2d

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/asyncfinish"
	"repro/internal/baseline/bruteforce"
	"repro/internal/baseline/fasttrack"
	"repro/internal/baseline/naive"
	"repro/internal/baseline/spbags"
	"repro/internal/baseline/spom"
	"repro/internal/baseline/vc"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/future"
	"repro/internal/goinstr"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/spawnsync"
)

// Addr identifies a monitored memory location.
type Addr = core.Addr

// Race is one race report; see core.Race for field semantics.
type Race = core.Race

// Stats is a snapshot of an engine's operation counters — the
// observability surface backing the paper's accounting theorems (see
// internal/obs). Every engine reports the counters it tracks; zero
// fields are omitted from JSON.
type Stats = obs.Stats

// CheckAccounting verifies the paper's Theorem 3/5 operation-accounting
// bounds on a 2D-family stats snapshot: exactly one union-find find per
// supremum query, at most n−1 unions for n task vertices, and amortized
// union-find work within a constant of the Θ(α) budget.
func CheckAccounting(s Stats, tasks int) error { return obs.CheckAccounting(s, tasks) }

// Task is the fork-join task capability (fork, join, read, write).
type Task = fj.Task

// Handle names a forked task for a later Join.
type Handle = fj.Handle

// Proc is the Cilk-style spawn/sync procedure capability.
type Proc = spawnsync.Proc

// Act is the X10-style async/finish activity capability.
type Act = asyncfinish.Act

// GoTask is the goroutine-frontend task capability.
type GoTask = goinstr.Task

// GoHandle names a goroutine task created by GoTask.Go.
type GoHandle = goinstr.Handle

// Cell is a pipeline cell capability.
type Cell = pipeline.Cell

// Pipeline configures a linear pipeline (stages × items grid).
type Pipeline = pipeline.Config

// Event and Sink expose the execution event stream for advanced uses
// (custom detectors, trace recording).
type (
	// Event is one execution event.
	Event = fj.Event
	// Sink consumes execution events.
	Sink = fj.Sink
	// Trace records events for replay.
	Trace = fj.Trace
)

// ErrStructure wraps all fork-join discipline violations.
var ErrStructure = fj.ErrStructure

// Storage selects the 2D detector's per-location state backend; both
// backends report identical races (see the differential tests) and
// differ only in constant factors.
type Storage = core.Storage

const (
	// StorageOpenAddr is the default paged store: 64-location pages
	// found through a small open-addressing directory, with a one-entry
	// page cache, allocation-free once a location's page exists (0.5
	// directory probes per memory operation on the benchmark's pipeline
	// trace, 1.0 on its fork-join trace; EXPERIMENTS E11c).
	StorageOpenAddr = core.StorageOpenAddr
	// StorageMap is the reference Go-map backend.
	StorageMap = core.StorageMap
)

// New2DSink returns the 2D detector as a StreamDetector on an explicit
// per-location storage backend — the entry point for the storage
// ablation and differential testing.
func New2DSink(s Storage) StreamDetector {
	return &streamDetector{
		d:      detectorSinkAdapter{fj.NewDetectorSinkStorage(16, s)},
		engine: Engine2D,
		maxID:  -1,
	}
}

// Engine selects a detector implementation. Engine2D is the paper's
// contribution; the others are baselines for comparison.
type Engine int

const (
	// Engine2D is the paper's Θ(1)-space suprema-based detector.
	Engine2D Engine = iota
	// EngineVC is the classic vector-clock detector (Θ(n)/location).
	EngineVC
	// EngineFastTrack is the epoch-optimized vector-clock detector.
	EngineFastTrack
	// EngineSPBags is the SP-bags detector (series-parallel programs
	// only).
	EngineSPBags
	// EngineSPOrder is the English–Hebrew order-maintenance detector
	// (Bender et al., reference [3]; series-parallel programs only).
	EngineSPOrder
	// EngineNaive is the paper's Section 2.3 naive algorithm: complete
	// per-location R/W sets, Θ(accesses) space.
	EngineNaive
)

func (e Engine) String() string {
	switch e {
	case Engine2D:
		return "2d"
	case EngineVC:
		return "vc"
	case EngineFastTrack:
		return "fasttrack"
	case EngineSPBags:
		return "spbags"
	case EngineSPOrder:
		return "sporder"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine converts a name ("2d", "vc", "fasttrack", "spbags",
// "sporder", "naive", or an alias) to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "2d", "race2d":
		return Engine2D, nil
	case "vc", "vectorclock", "djit":
		return EngineVC, nil
	case "fasttrack", "ft":
		return EngineFastTrack, nil
	case "spbags", "sp-bags", "sp":
		return EngineSPBags, nil
	case "sporder", "sp-order", "eh", "om":
		return EngineSPOrder, nil
	case "naive", "rwsets":
		return EngineNaive, nil
	}
	return 0, fmt.Errorf("race2d: unknown engine %q", s)
}

// detector is the common surface of all engines.
type detector interface {
	fj.Sink
	Races() []core.Race
	Count() int
	Racy() bool
	Locations() int
	MemoryBytes() int
	Stats() obs.Stats
}

// detectorSinkAdapter lets the 2D DetectorSink satisfy detector.
type detectorSinkAdapter struct{ *fj.DetectorSink }

func (a detectorSinkAdapter) Count() int       { return a.D.Count() }
func (a detectorSinkAdapter) Locations() int   { return a.D.Locations() }
func (a detectorSinkAdapter) MemoryBytes() int { return a.D.MemoryBytes() }

// NewEngineSink returns a fresh detector for the engine as a
// StreamDetector.
func NewEngineSink(e Engine) StreamDetector {
	return &streamDetector{d: newDetector(e), engine: e, maxID: -1}
}

func newDetector(e Engine) detector {
	switch e {
	case EngineVC:
		return vc.New()
	case EngineFastTrack:
		return fasttrack.New()
	case EngineSPBags:
		return spbags.New()
	case EngineSPOrder:
		return spom.New()
	case EngineNaive:
		return naive.New()
	default:
		return detectorSinkAdapter{fj.NewDetectorSink(16)}
	}
}

// Report is the result of running a program under a detector.
type Report struct {
	// Races holds the retained race reports in detection order. The
	// first report is precise (a true race); later ones may be
	// artifacts, per the paper's up-to-first-race guarantee.
	Races []Race
	// Count is the total number of reports (≥ len(Races)).
	Count int
	// Tasks is the number of tasks the execution created.
	Tasks int
	// Locations is the number of distinct memory locations monitored.
	Locations int
	// MemoryBytes estimates the detector's final state size.
	MemoryBytes int
	// Engine identifies the detector used.
	Engine Engine
	// Stats is the engine's operation-count snapshot at the end of the
	// run (see Stats and internal/obs).
	Stats Stats
	// AddrName, when non-nil, resolves monitored addresses to symbolic
	// names — DetectSource sets it to the source-level location names.
	// String, MarshalJSON and WriteJSON consult it; nil renders hex.
	AddrName func(Addr) string `json:"-"`
}

// Racy reports whether any race was detected.
func (r *Report) Racy() bool { return r.Count > 0 }

// String renders a short human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s tasks=%d locations=%d races=%d", r.Engine, r.Tasks, r.Locations, r.Count)
	for i, race := range r.Races {
		if r.AddrName != nil {
			fmt.Fprintf(&b, "\n  #%d %s race on %q: current %d vs prior rooted at %d",
				i+1, race.Kind, r.AddrName(race.Loc), race.Current, race.Prior)
		} else {
			fmt.Fprintf(&b, "\n  #%d %s", i+1, race)
		}
		if i == 0 {
			b.WriteString(" (precise)")
		}
	}
	return b.String()
}

func report(e Engine, d detector, tasks int) *Report {
	return &Report{
		Races:       d.Races(),
		Count:       d.Count(),
		Tasks:       tasks,
		Locations:   d.Locations(),
		MemoryBytes: d.MemoryBytes(),
		Engine:      e,
		Stats:       d.Stats(),
	}
}

// Detect runs a structured fork-join program under the configured
// detector (2D by default; see Option). Cancellation (WithContext)
// applies directly to the serial runtime.
func Detect(root func(*Task), opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	d := cfg.newDetector()
	tasks, err := fj.Run(root, d, fj.Options{AutoJoin: true, Ctx: cfg.ctx})
	return cfg.finish(d, tasks, nil, err)
}

// DetectSpawnSync runs a Cilk-style spawn/sync program under the
// configured detector.
func DetectSpawnSync(root func(*Proc), opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return cfg.run(func(s Sink) (int, error) { return spawnsync.Run(root, s) })
}

// DetectAsyncFinish runs an X10-style async/finish program under the
// configured detector.
func DetectAsyncFinish(root func(*Act), opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return cfg.run(func(s Sink) (int, error) { return asyncfinish.Run(root, s) })
}

// DetectPipeline runs a linear pipeline under the configured detector.
func DetectPipeline(cfg Pipeline, opts ...Option) (*Report, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return c.run(func(s Sink) (int, error) { return pipeline.Run(cfg, s) })
}

// DetectPipelineWhile runs an on-the-fly pipeline (pipe_while style, Lee
// et al.): more is consulted before each item; the pipeline drains when
// it returns false.
func DetectPipelineWhile(stages int, more func(item int) bool, body func(*Cell), opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return cfg.run(func(s Sink) (int, error) { return pipeline.RunWhile(stages, more, body, s) })
}

// DetectGoroutines runs a program whose tasks execute on truly
// concurrent goroutines under the configured detector: each task
// buffers its events into a bounded queue (WithQueueCapacity) and a
// merge stage linearizes the streams into the canonical fork-first
// order, so verdicts are identical to the serial schedule's.
// WithContext cancels the run gracefully (drained Report plus
// ctx.Err()); WithSerialIngest restores the serialized schedule. The
// report's Stats include the ingestion backpressure counters
// (Producers, EventsBuffered, MaxQueueDepth, ProducerStalls).
func DetectGoroutines(root func(*GoTask), opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	d := cfg.newDetector()
	res, err := goinstr.RunPipeline(root, d, goinstr.Options{
		Context:       cfg.ctx,
		QueueCapacity: cfg.queueCap,
		Serial:        cfg.serial,
	})
	return cfg.finish(d, res.Tasks, &res.Stats, err)
}

// DetectSource parses a textual program (see internal/prog syntax) and
// runs it under the configured detector. Source-level location names
// are folded into the report as Report.AddrName, so String and the JSON
// renderings print symbolic names without a separate resolver.
// WithContext cancels mid-interpretation with a drained Report.
func DetectSource(src io.Reader, opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	p, err := prog.Parse(src)
	if err != nil {
		return nil, err
	}
	d := cfg.newDetector()
	res, runErr := prog.ExecContext(cfg.context(), p, d)
	rep, err := cfg.finish(d, res.Tasks, nil, runErr)
	if rep != nil {
		rep.AddrName = res.LocName
	}
	return rep, err
}

// GroundTruth replays a recorded trace through the exhaustive
// reachability-based oracle and reports whether a race truly exists. It
// costs Θ(operations²) time and Θ(operations) space — the cost the online
// detector avoids — and exists for validation and debugging.
func GroundTruth(tr *Trace) bool {
	return bruteforce.Analyze(tr).Racy()
}

// PTask is the parallel-executor task capability: the same fork-join
// model at full concurrency, without detection (see RunParallel).
type PTask = parallel.Task

// PHandle names a task forked by the parallel executor.
type PHandle = parallel.Handle

// RunParallel executes a structured fork-join program with REAL
// parallelism and no instrumentation: forked tasks run concurrently and
// Join provides the happens-before edge. Detection requires the serial
// schedule (Section 2.3 of the paper), so the intended workflow is to
// check a program's access pattern under Detect and deploy the same
// shape under RunParallel.
func RunParallel(root func(*PTask)) (tasks int, err error) {
	return parallel.Run(root)
}

// FutureCtx is the futures-frontend capability (spawn and force
// left-neighbor futures; see internal/future).
type FutureCtx = future.Ctx

// Future is a handle to a spawned computation's eventual value.
type Future = future.Future

// Value is the result type carried by futures.
type Value = future.Value

// DetectFutures runs a program written with restricted (left-neighbor)
// futures — the construct the paper notes fork-join "naturally
// capture[s]" (Section 2.2) and the idiom of Blelloch and Reid-Miller's
// pipelining with futures — under the configured detector.
func DetectFutures(root func(*FutureCtx), opts ...Option) (*Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return cfg.run(func(s Sink) (int, error) { return future.Run(root, s) })
}
