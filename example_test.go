package race2d_test

import (
	"fmt"
	"strings"

	race2d "repro"
)

// The paper's Figure 2: A (the child's read) races with D (the final
// write), while B's read is ordered before D.
func ExampleDetect() {
	shared := race2d.Addr(0x10)
	report, err := race2d.Detect(func(t *race2d.Task) {
		a := t.Fork(func(a *race2d.Task) { a.Read(shared) }) // A
		t.Read(shared)                                       // B
		c := t.Fork(func(c *race2d.Task) { c.Join(a) })      // C
		t.Write(shared)                                      // D
		t.Join(c)
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("races:", report.Count)
	fmt.Println("first:", report.Races[0].Kind)
	// Output:
	// races: 1
	// first: read-write
}

// Pipeline parallelism (Section 5): per-stage state is ordered by the
// grid's cross-item dependencies, so the pipeline is race-free.
func ExampleDetectPipeline() {
	report, err := race2d.DetectPipeline(race2d.Pipeline{
		Stages: 3,
		Items:  8,
		Body: func(c *race2d.Cell) {
			state := race2d.Addr(100 + c.Stage)
			c.Read(state)
			c.Write(state)
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tasks:", report.Tasks, "races:", report.Count)
	// Output:
	// tasks: 25 races: 0
}

// Cilk-style spawn/sync: an unsynchronized write in a spawned child races
// with the parent's write.
func ExampleDetectSpawnSync() {
	report, err := race2d.DetectSpawnSync(func(p *race2d.Proc) {
		p.Spawn(func(c *race2d.Proc) { c.Write(1) })
		p.Write(1) // before sync: parallel with the child
		p.Sync()
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("racy:", report.Racy())
	// Output:
	// racy: true
}

// Functional options are the single configuration surface: engine,
// storage backend, event batching, cancellation context and stats
// capture all thread through the same variadic parameter, on every
// frontend.
func ExampleDetect_options() {
	var stats race2d.Stats
	report, err := race2d.Detect(func(t *race2d.Task) {
		h := t.Fork(func(c *race2d.Task) { c.Write(1) })
		t.Write(1)
		t.Join(h)
	},
		race2d.WithStorage(race2d.StorageMap),
		race2d.WithBatchSize(256),
		race2d.WithStats(&stats),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("racy:", report.Racy(), "engine:", report.Engine)
	fmt.Println("stats captured:", stats.MemOps() > 0)
	// Output:
	// racy: true engine: 2d
	// stats captured: true
}

// Textual programs: DetectSource folds the source-level location names
// into the report (Report.AddrName), so races print symbolically.
func ExampleDetectSource() {
	report, err := race2d.DetectSource(
		strings.NewReader("fork a { write x } write x join a"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("racy:", report.Racy())
	fmt.Println("location:", report.AddrName(report.Races[0].Loc))
	// Output:
	// racy: true
	// location: x
}

// Goroutine tasks run truly concurrently; the bounded ingestion
// pipeline merges their event streams back into the canonical serial
// order, so the verdict is deterministic and the report carries the
// backpressure counters.
func ExampleDetectGoroutines() {
	report, err := race2d.DetectGoroutines(func(t *race2d.GoTask) {
		h := t.Go(func(c *race2d.GoTask) { c.Write(1) })
		t.Write(1)
		t.Join(h)
	}, race2d.WithQueueCapacity(1024))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("racy:", report.Racy(), "producers:", report.Stats.Producers)
	// Output:
	// racy: true producers: 2
}

// Violating the left-neighbor discipline is an error, not a wrong answer:
// such programs are outside the 2D class.
func ExampleDetect_structureViolation() {
	_, err := race2d.Detect(func(t *race2d.Task) {
		a := t.Fork(func(*race2d.Task) {})
		t.Fork(func(*race2d.Task) {})
		t.Join(a) // not the immediate left neighbor
	})
	fmt.Println(err != nil)
	// Output:
	// true
}
