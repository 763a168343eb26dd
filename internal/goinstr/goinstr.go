// Package goinstr runs structured fork-join programs on real goroutines
// and feeds the paper's detector through a concurrent ingestion
// pipeline. Each task executes in its own goroutine, truly concurrently
// scheduled; instrumented operations are appended to a per-task
// sequenced buffer, and a bounded merge stage (see pipeline.go)
// linearizes the per-task streams into a delayed non-separating
// traversal — the order Theorem 4 proves the online walker tolerates —
// before streaming it into the single-consumer detector. The
// emitted event stream is byte-for-byte the serial fork-first stream,
// so every detector and baseline consumes it unchanged and verdicts are
// bit-identical to serial replay.
//
// The instrumentation points are exactly the ones a compiler or runtime
// shim would hook in instrumented Go code: goroutine creation (Go),
// joining (Join, the done-channel idiom), and memory accesses
// (Read/Write). Go's unrestricted goroutines carry no task-line
// structure, so the structure is imposed by the API and violations
// surface as errors. The pre-pipeline serialized fork-first schedule
// ("the price we pay for efficiency", Section 2.3) remains available
// via RunSerial or Options.Serial — it is the baseline the pipeline is
// measured against.
package goinstr

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fj"
)

// ID identifies a task. In concurrent mode IDs record creation order
// (the order forks were executed), which may differ from the serial
// fork-first numbering the detector reports; the merge stage renumbers
// events onto the canonical serial IDs.
type ID = fj.ID

// Task is the per-goroutine capability. Methods must be called from the
// goroutine that owns the task (the one its body runs on); tasks are
// not shared between goroutines — concurrency comes from forking, not
// from aliasing a Task.
type Task struct {
	id ID
	rt *serialRT // serial mode
	pr *producer // concurrent pipeline mode
}

// ID returns the task identifier (0 for the root).
func (t *Task) ID() ID { return t.id }

// Handle names a task created by Go for a later Join.
type Handle struct {
	id   ID
	done chan struct{}
	node *node // concurrent mode: the task's position in the line
}

// ID returns the identifier of the task the handle names (-1 when the
// fork itself was rejected).
func (h Handle) ID() ID { return h.id }

var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Go activates body as a new task on a fresh goroutine placed
// immediately left of t. In concurrent mode parent and child proceed in
// parallel; in serial mode the parent blocks until the child halts (the
// serial fork-first schedule).
func (t *Task) Go(body func(*Task)) Handle {
	if t.pr != nil {
		return t.pr.fork(t, body)
	}
	return t.goSerial(body)
}

// Join suspends t until the task named by h terminates, then emits the
// discipline-checked join. Under the discipline h must name t's
// immediate left neighbor in the line.
func (t *Task) Join(h Handle) {
	if t.pr != nil {
		t.pr.join(t, h)
		return
	}
	t.joinSerial(h)
}

// JoinLeft joins the current immediate left neighbor, if any, blocking
// until it terminates. It returns false when t is leftmost.
func (t *Task) JoinLeft() bool {
	if t.pr != nil {
		return t.pr.joinLeft(t)
	}
	return t.joinLeftSerial()
}

// Read performs an instrumented read of loc.
func (t *Task) Read(loc core.Addr) {
	if t.pr != nil {
		t.pr.emit(fj.Event{Kind: fj.EvRead, T: t.id, Loc: loc})
		return
	}
	t.readSerial(loc)
}

// Write performs an instrumented write of loc.
func (t *Task) Write(loc core.Addr) {
	if t.pr != nil {
		t.pr.emit(fj.Event{Kind: fj.EvWrite, T: t.id, Loc: loc})
		return
	}
	t.writeSerial(loc)
}

// Run executes root as the main task with every forked task on its own
// concurrently-scheduled goroutine, streaming the linearized events to
// sink. Remaining tasks are joined at the end. It returns the number of
// tasks created and the first error (structure violation or task
// panic). Use RunPipeline for cancellation, bounded-queue tuning, and
// ingestion stats.
func Run(root func(*Task), sink fj.Sink) (int, error) {
	res, err := RunPipeline(root, sink, Options{})
	return res.Tasks, err
}

// RunSerial executes root on the serialized fork-first schedule: each
// Go blocks until the child goroutine halts, so exactly one task runs
// at a time and events reach sink in the serial order directly. This is
// the pre-pipeline behavior, kept as the measured baseline.
func RunSerial(root func(*Task), sink fj.Sink) (int, error) {
	res, err := RunPipeline(root, sink, Options{Serial: true})
	return res.Tasks, err
}

// ---- serial fork-first schedule -----------------------------------------

type serialRT struct {
	mu   sync.Mutex // guards err; the line itself is serialization-protected
	line *fj.Line
	ctx  context.Context // nil when the run is not cancellable
	err  error
}

func (rt *serialRT) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
}

// failed also polls the context, so cancellation lands deterministically
// at the next structural operation even when the run is too short for
// the asynchronous AfterFunc watcher to be scheduled.
func (rt *serialRT) failed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err == nil && rt.ctx != nil {
		if err := rt.ctx.Err(); err != nil {
			rt.err = err
		}
	}
	return rt.err != nil
}

func (t *Task) goSerial(body func(*Task)) Handle {
	rt := t.rt
	if rt.failed() {
		return Handle{id: -1, done: closedChan}
	}
	child, err := rt.line.Fork(t.id)
	if err != nil {
		rt.fail(err)
		return Handle{id: -1, done: closedChan}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				rt.fail(fmt.Errorf("goinstr: task %d panicked: %v", child, p))
				return
			}
			if e := rt.line.Halt(child); e != nil {
				rt.fail(e)
			}
		}()
		body(&Task{id: child, rt: rt})
	}()
	<-done // fork-first: the child goroutine runs to completion first
	return Handle{id: child, done: done}
}

func (t *Task) joinSerial(h Handle) {
	rt := t.rt
	if rt.failed() || h.id < 0 {
		return
	}
	<-h.done
	if err := rt.line.Join(t.id, h.id); err != nil {
		rt.fail(err)
	}
}

func (t *Task) joinLeftSerial() bool {
	rt := t.rt
	if rt.failed() {
		return false
	}
	y := rt.line.LeftNeighbor(t.id)
	if y < 0 {
		return false
	}
	if err := rt.line.Join(t.id, y); err != nil {
		rt.fail(err)
		return false
	}
	return true
}

func (t *Task) readSerial(loc core.Addr) {
	if t.rt.failed() {
		return
	}
	if err := t.rt.line.Read(t.id, loc); err != nil {
		t.rt.fail(err)
	}
}

func (t *Task) writeSerial(loc core.Addr) {
	if t.rt.failed() {
		return
	}
	if err := t.rt.line.Write(t.id, loc); err != nil {
		t.rt.fail(err)
	}
}

func runSerial(root func(*Task), sink fj.Sink, opt Options) (Result, error) {
	rt := &serialRT{line: fj.NewLine(sink), ctx: opt.Context}
	if opt.Context != nil {
		if stop := watchContext(opt.Context, rt); stop != nil {
			defer stop()
		}
	}
	main := &Task{id: 0, rt: rt}
	root(main)
	for main.JoinLeft() {
	}
	if !rt.failed() {
		if err := rt.line.Halt(0); err != nil {
			rt.fail(err)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Result{Tasks: rt.line.Tasks()}, rt.err
}
