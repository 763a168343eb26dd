package race2d

import (
	"context"
	"fmt"

	"repro/internal/fj"
	"repro/internal/goinstr"
)

// Option configures a detection run. Every frontend — Detect,
// DetectSpawnSync, DetectAsyncFinish, DetectPipeline, DetectGoroutines,
// DetectFutures, DetectSource — accepts the same options; an option a
// frontend cannot honor is documented on the option. The zero
// configuration is the 2D engine on its default storage, no
// cancellation.
type Option func(*config)

// config is the resolved option set — the single configuration surface
// behind every frontend.
type config struct {
	engine     Engine
	storage    Storage
	storageSet bool
	queueCap   int
	serial     bool
	ctx        context.Context
	stats      *Stats
}

func newConfig(opts []Option) (*config, error) {
	c := &config{engine: Engine2D}
	for _, o := range opts {
		if o != nil {
			o(c)
		}
	}
	if c.storageSet && c.engine != Engine2D {
		return nil, fmt.Errorf("race2d: WithStorage applies to Engine2D only, not engine %q", c.engine)
	}
	if c.queueCap < 0 {
		return nil, fmt.Errorf("race2d: negative queue capacity %d", c.queueCap)
	}
	return c, nil
}

// WithEngine selects the detector implementation (default Engine2D).
func WithEngine(e Engine) Option {
	return func(c *config) { c.engine = e }
}

// WithStorage selects the 2D detector's per-location state backend
// (default StorageOpenAddr). It applies to Engine2D only; combining it
// with another engine is a configuration error.
func WithStorage(s Storage) Option {
	return func(c *config) { c.storage = s; c.storageSet = true }
}

// WithContext cancels the run when ctx is done. Cancellation is
// graceful: the run stops at the next structural operation (or, for
// DetectGoroutines, slab boundary), the event stream already merged is
// drained into the detector, and the frontend returns the Report for
// that prefix together with ctx.Err(). Honored by Detect,
// DetectGoroutines and DetectSource; the remaining frontends run to
// completion regardless.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithStats copies the run's final Stats snapshot (detector operation
// counters plus, for DetectGoroutines, ingestion backpressure counters)
// into dst when the frontend returns — including on cancellation.
func WithStats(dst *Stats) Option {
	return func(c *config) { c.stats = dst }
}

// WithQueueCapacity bounds each producer's event queue in the
// concurrent ingestion pipeline (DetectGoroutines) to n events; a full
// queue blocks its producer (backpressure) rather than growing. Zero
// selects the default. The other frontends execute on the serial
// schedule and never buffer unboundedly.
func WithQueueCapacity(n int) Option {
	return func(c *config) { c.queueCap = n }
}

// WithSerialIngest makes DetectGoroutines execute tasks serialized
// fork-first on goroutines (the pre-pipeline behavior) instead of
// concurrently — the baseline the E13 experiment compares against. No
// other frontend consults it.
func WithSerialIngest() Option {
	return func(c *config) { c.serial = true }
}

// newDetector builds the configured engine.
func (c *config) newDetector() detector {
	if c.storageSet {
		return detectorSinkAdapter{fj.NewDetectorSinkStorage(16, c.storage)}
	}
	return newDetector(c.engine)
}

// run executes a frontend body against the configured detector and
// assembles the Report.
func (c *config) run(body func(fj.Sink) (tasks int, err error)) (*Report, error) {
	d := c.newDetector()
	tasks, err := body(d)
	return c.finish(d, tasks, nil, err)
}

// finish assembles the Report from a finished (or cancelled) run.
// Cancellation is not fatal: the Report covers the drained prefix and
// ctx's error is returned alongside it. Any other error voids the
// report, matching the historical Detect contract.
func (c *config) finish(d detector, tasks int, ingest *Stats, runErr error) (*Report, error) {
	if runErr != nil && !goinstr.IsCancellation(runErr) {
		return nil, runErr
	}
	rep := report(c.engine, d, tasks)
	if ingest != nil {
		rep.Stats.Add(*ingest)
	}
	if c.stats != nil {
		*c.stats = rep.Stats
	}
	return rep, runErr
}

// context returns the configured context, defaulting to Background.
func (c *config) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}
