package fj

import (
	"context"

	"repro/internal/core"
)

// Task is the capability handed to a task body: it forks children, joins
// its left neighbor, and performs instrumented memory accesses. A Task is
// valid only while its body runs on the serial schedule; using it after
// the body returns is a structure violation.
type Task struct {
	id ID
	rt *Runtime
}

// ID returns the task's identifier (0 for the root task).
func (t *Task) ID() ID { return t.id }

// Handle names a forked task for a later Join.
type Handle struct {
	id ID
}

// ID returns the identifier of the task the handle names.
func (h Handle) ID() ID { return h.id }

// Runtime executes a structured fork-join program serially, fork-first
// (Section 5: "execute the program serially, fork-first, and emit arcs on
// the way"), emitting the event stream to a Sink. The zero value is not
// usable; call Run.
type Runtime struct {
	line *Line
	ctx  context.Context // optional; checked at structural operations
	err  error           // first structure violation, sticky
}

// checkCtx aborts the run with the context's error at the next
// structural operation once the context is done. Cancellation
// granularity is a task boundary: access runs between forks/joins are
// not interrupted (they are the detector's fast path).
func (r *Runtime) checkCtx() {
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
		}
	}
}

// structurePanic carries a discipline error through the user's stack
// frames; Run recovers it. User panics are re-raised untouched.
type structurePanic struct{ err error }

func (r *Runtime) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	panic(structurePanic{err})
}

// Fork activates body as a new task placed immediately left of t, runs it
// to completion (serial fork-first schedule), and returns its handle for a
// later Join. The child's halt is emitted before Fork returns.
func (t *Task) Fork(body func(*Task)) Handle {
	t.rt.checkCtx()
	child, err := t.rt.line.Fork(t.id)
	if err != nil {
		t.rt.fail(err)
	}
	ct := &Task{id: child, rt: t.rt}
	body(ct)
	if err := t.rt.line.Halt(child); err != nil {
		t.rt.fail(err)
	}
	return Handle{id: child}
}

// Join suspends t until the task named by h terminates. Under the
// discipline, h must be t's immediate left neighbor in the line and (on
// the serial schedule, always) already halted; otherwise the program is
// outside the 2D class and Run reports the violation.
func (t *Task) Join(h Handle) {
	t.rt.checkCtx()
	if err := t.rt.line.Join(t.id, h.id); err != nil {
		t.rt.fail(err)
	}
}

// JoinLeft joins whatever task is currently t's immediate left neighbor,
// returning false if there is none. It expresses "sync"-style bulk joins.
func (t *Task) JoinLeft() bool {
	y := t.rt.line.LeftNeighbor(t.id)
	if y < 0 {
		return false
	}
	t.Join(Handle{id: y})
	return true
}

// Read performs an instrumented read of loc.
func (t *Task) Read(loc core.Addr) {
	if err := t.rt.line.Read(t.id, loc); err != nil {
		t.rt.fail(err)
	}
}

// Write performs an instrumented write of loc.
func (t *Task) Write(loc core.Addr) {
	if err := t.rt.line.Write(t.id, loc); err != nil {
		t.rt.fail(err)
	}
}

// Options configures Run.
type Options struct {
	// AutoJoin makes the root task join all remaining tasks when its body
	// returns, giving the task graph a single sink. Programs that leave
	// tasks unjoined otherwise end with dangling (yet legal) structure.
	AutoJoin bool

	// Ctx, when non-nil, cancels the run: once the context is done the
	// next structural operation (fork or join) aborts with ctx.Err().
	// Run still returns the task count, so callers can report on the
	// prefix that executed.
	Ctx context.Context
}

// Run executes root as the main task of a fresh runtime, streaming events
// to sink (which may be nil). It returns the number of tasks created and
// the first structure violation, if any. User panics propagate.
func Run(root func(*Task), sink Sink, opt Options) (tasks int, err error) {
	rt := &Runtime{line: NewLine(sink), ctx: opt.Ctx}
	main := &Task{id: 0, rt: rt}
	defer func() {
		if p := recover(); p != nil {
			if sp, ok := p.(structurePanic); ok {
				tasks = rt.line.Tasks()
				err = sp.err
				return
			}
			panic(p)
		}
	}()
	root(main)
	if opt.AutoJoin {
		for main.JoinLeft() {
		}
	}
	if e := rt.line.Halt(0); e != nil && rt.err == nil {
		rt.err = e
	}
	return rt.line.Tasks(), rt.err
}
