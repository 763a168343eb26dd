package goinstr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fj"
	"repro/internal/obs"
)

// Concurrent ingestion pipeline.
//
// Every instrumented task runs on its own goroutine and appends events
// to a private slab, flushed into a bounded per-task fj.EventQueue. A
// single merge goroutine consumes the queues in fork-first order: when
// it meets a fork event it descends into the child's queue and consumes
// that stream to its halt before resuming the parent — a depth-first
// walk that reconstructs exactly the canonical serial fork-first
// linearization. The merged stream drives an ordinary fj.Line, so
// discipline checking, event emission, and detector consumption are
// byte-for-byte the serial path; concurrency never reaches past the
// merge stage. The output order is a delayed non-separating traversal
// of the execution's 2D lattice — the contract (Theorem 4) under which
// the walker's relaxed suprema answers remain sound — and because it
// equals the serial order, verdicts are bit-identical to serial replay.
//
// Two rules make the merge deadlock-free:
//
//  1. A producer flushes its slab immediately after appending a fork
//     event, so a fork is visible to the merge stage before the parent
//     can possibly block waiting for the child.
//  2. A task's queue is closed (and its done channel closed) only after
//     its halt event is enqueued.
//
// With these, an inductive argument gives progress: if the consumer
// waits on task w's queue, the consumer has already consumed every
// event to the left of w's position in the serial order; a task w could
// only block joining a left neighbor n, but n's entire stream precedes
// w's position and would already be consumed — so n has halted and w is
// not blocked. Hence w is running, or stalled in Push on its own queue,
// which the consumer's pop unblocks. Producers blocked on backpressure
// hold no locks the consumer needs.
//
// Task IDs: producers assign runtime IDs in fork-execution order via an
// atomic counter; the scheduler makes that order nondeterministic. The
// merge stage renumbers by replaying forks into the line in consumption
// order, so the sink always sees canonical serial IDs.
//
// The left-neighbor structure itself is maintained concurrently without
// locks: each task's node has a left pointer mutated only by the task
// that currently has the node as its neighbor frontier (fork splices a
// child in, join splices a halted neighbor out), and a task reads
// another node's left pointer only after receiving on its done channel,
// which orders the read after every write by the halted task.

// Options configures RunPipeline.
type Options struct {
	// Context, when non-nil, cancels the run: producers stop emitting
	// and unblock, the merge stage stops at a slab boundary, and
	// RunPipeline returns ctx.Err() together with the Result for the
	// consistent prefix that was merged (a drained report).
	Context context.Context

	// QueueCapacity bounds each per-task queue in buffered events
	// (fj.DefaultQueueCapacity when <= 0). A producer that runs ahead of
	// the merge stage by more than this blocks in its next flush.
	QueueCapacity int

	// SlabSize is the producer-side slab length: how many events a task
	// accumulates locally before flushing to its queue
	// (fj.DefaultBatchSize when <= 0). Forks and halts flush eagerly
	// regardless.
	SlabSize int

	// Serial selects the serialized fork-first schedule instead of the
	// pipeline: each Go blocks until the child halts. The baseline the
	// pipeline is measured against.
	Serial bool
}

// Result reports a pipeline run: the number of tasks created and the
// ingestion-side counters (queue backpressure accounting; zero in
// serial mode, which has no queues).
type Result struct {
	Tasks int
	Stats obs.Stats
}

// node is a task's position in the concurrently-maintained line.
type node struct {
	id   ID
	done chan struct{}
	left *node // owner-mutated; read by the right neighbor after <-done
}

// pipeline is the shared state of one RunPipeline invocation.
type pipeline struct {
	queueCap int
	slabSize int

	nextID   atomic.Int64
	failed   atomic.Bool
	failOnce sync.Once
	cancelCh chan struct{} // closed on the first failure; unblocks join waits

	mu     sync.Mutex
	err    error            // first failure, sticky
	queues []*fj.EventQueue // indexed by runtime task ID

	wg           sync.WaitGroup // forked task goroutines
	consumerDone chan struct{}

	// written by the consumer before consumerDone closes
	tasks     int
	mergedErr error
}

func (pl *pipeline) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	queues := pl.queues
	pl.mu.Unlock()
	pl.failed.Store(true)
	pl.failOnce.Do(func() { close(pl.cancelCh) })
	for _, q := range queues {
		if q != nil {
			q.Cancel()
		}
	}
}

func (pl *pipeline) newQueue(id ID) *fj.EventQueue {
	q := fj.NewEventQueue(pl.queueCap, pl.slabSize)
	pl.mu.Lock()
	for len(pl.queues) <= id {
		pl.queues = append(pl.queues, nil)
	}
	pl.queues[id] = q
	pl.mu.Unlock()
	if pl.failed.Load() {
		q.Cancel() // lost the race with fail's broadcast
	}
	return q
}

func (pl *pipeline) queueOf(id ID) *fj.EventQueue {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if id < len(pl.queues) {
		return pl.queues[id]
	}
	return nil
}

// producer is the emitting side of one task's queue.
type producer struct {
	pl   *pipeline
	self *node
	q    *fj.EventQueue
	slab []fj.Event
}

func (p *producer) emit(e fj.Event) {
	if p.pl.failed.Load() {
		return
	}
	p.slab = append(p.slab, e)
	if len(p.slab) == cap(p.slab) {
		p.flush()
	}
}

func (p *producer) flush() {
	if len(p.slab) == 0 {
		return
	}
	switch err := p.q.Push(p.slab); err {
	case nil:
		p.slab = p.q.NewSlab()
	case fj.ErrQueueClosed:
		p.pl.fail(fmt.Errorf("%w: operation on task %d after it halted", fj.ErrStructure, p.self.id))
		p.slab = p.slab[:0]
	default:
		p.slab = p.slab[:0]
	}
}

func (p *producer) fork(t *Task, body func(*Task)) Handle {
	pl := p.pl
	if pl.failed.Load() {
		return Handle{id: -1, done: closedChan}
	}
	child := ID(pl.nextID.Add(1))
	cn := &node{id: child, done: make(chan struct{}), left: p.self.left}
	p.self.left = cn
	cq := pl.newQueue(child)
	cp := &producer{pl: pl, self: cn, q: cq, slab: cq.NewSlab()}
	p.emit(fj.Event{Kind: fj.EvFork, T: t.id, U: child})
	p.flush() // rule 1: the fork must reach the merge stage before we can block
	pl.wg.Add(1)
	go func() {
		defer pl.wg.Done()
		defer close(cn.done) // rule 2: after the halt is enqueued and the queue closed
		defer cq.Close()
		defer func() {
			if r := recover(); r != nil {
				pl.fail(fmt.Errorf("goinstr: task %d panicked: %v", child, r))
			}
		}()
		ct := &Task{id: child, pr: cp}
		body(ct)
		cp.emit(fj.Event{Kind: fj.EvHalt, T: child})
		cp.flush()
	}()
	return Handle{id: child, done: cn.done, node: cn}
}

func (p *producer) join(t *Task, h Handle) {
	pl := p.pl
	if pl.failed.Load() || h.id < 0 {
		return
	}
	if h.node == nil || p.self.left != h.node {
		want := ID(-1)
		if p.self.left != nil {
			want = p.self.left.id
		}
		pl.fail(fmt.Errorf("%w: task %d may only join its immediate left neighbor %d, not %d",
			fj.ErrStructure, t.id, want, h.id))
		return
	}
	select {
	case <-h.node.done:
	case <-pl.cancelCh:
		return // shutdown: the join's wait is released without joining
	}
	p.self.left = h.node.left
	p.emit(fj.Event{Kind: fj.EvJoin, T: t.id, U: h.id})
}

func (p *producer) joinLeft(t *Task) bool {
	pl := p.pl
	if pl.failed.Load() {
		return false
	}
	n := p.self.left
	if n == nil {
		return false
	}
	select {
	case <-n.done:
	case <-pl.cancelCh:
		return false // shutdown: release the wait without joining
	}
	p.self.left = n.left
	p.emit(fj.Event{Kind: fj.EvJoin, T: t.id, U: n.id})
	return true
}

// consume is the merge stage: a depth-first walk over the per-task
// queues producing the canonical serial fork-first event order, driven
// straight into a fresh fj.Line over sink.
func (pl *pipeline) consume(sink fj.Sink, rootQ *fj.EventQueue) {
	defer close(pl.consumerDone)
	line := fj.NewLine(sink)
	defer func() { pl.tasks = line.Tasks() }()

	serialOf := make([]ID, 1, 16) // runtime ID -> serial ID; root is 0 in both
	type frame struct {
		q    *fj.EventQueue
		slab []fj.Event
		idx  int
	}
	stack := []frame{{q: rootQ}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx == len(f.slab) {
			if f.slab != nil {
				f.q.Recycle(f.slab)
				f.slab = nil
			}
			if pl.failed.Load() {
				return // cancelled: stop at a slab boundary, keep the merged prefix
			}
			slab, ok := f.q.Pop()
			if !ok {
				// Queue closed without a halt: the producer panicked (or
				// the run was cancelled mid-stream). The failure is
				// already recorded; abandon the frame.
				stack = stack[:len(stack)-1]
				continue
			}
			f.slab, f.idx = slab, 0
			continue
		}
		e := f.slab[f.idx]
		f.idx++
		var err error
		switch e.Kind {
		case fj.EvFork:
			var sid ID
			sid, err = line.Fork(serialOf[e.T])
			if err == nil {
				for len(serialOf) <= e.U {
					serialOf = append(serialOf, -1)
				}
				serialOf[e.U] = sid
				if q := pl.queueOf(e.U); q != nil {
					stack = append(stack, frame{q: q}) // descend: fork-first
				}
			}
		case fj.EvJoin:
			err = line.Join(serialOf[e.T], serialOf[e.U])
		case fj.EvHalt:
			if err = line.Halt(serialOf[e.T]); err == nil {
				// A halt is the last event of its stream; drop the frame.
				top := len(stack) - 1
				if stack[top].slab != nil {
					stack[top].q.Recycle(stack[top].slab)
				}
				stack = stack[:top]
			}
		case fj.EvRead:
			err = line.Read(serialOf[e.T], e.Loc)
		case fj.EvWrite:
			err = line.Write(serialOf[e.T], e.Loc)
		}
		if err != nil {
			pl.fail(err)
			return
		}
	}
}

// watchContext arranges for rt to fail with ctx.Err() once ctx is done;
// the returned stop function releases the watcher.
func watchContext(ctx context.Context, rt *serialRT) func() bool {
	return context.AfterFunc(ctx, func() { rt.fail(ctx.Err()) })
}

// RunPipeline executes root as the main task with every forked task on
// its own concurrently-scheduled goroutine, merging the per-task event
// streams into the serial fork-first order and streaming it to sink.
// Remaining tasks are joined when the root body returns. It returns the
// task count observed by the merge stage, the aggregated ingestion
// stats, and the first error: a structure violation, a task panic, or
// the context's error on cancellation. On cancellation the Result still
// describes the merged prefix, so a report can be drained.
func RunPipeline(root func(*Task), sink fj.Sink, opt Options) (Result, error) {
	if opt.Serial {
		return runSerial(root, sink, opt)
	}
	pl := &pipeline{
		queueCap:     opt.QueueCapacity,
		slabSize:     opt.SlabSize,
		consumerDone: make(chan struct{}),
		cancelCh:     make(chan struct{}),
	}
	if pl.slabSize <= 0 {
		pl.slabSize = fj.DefaultBatchSize
	}
	rootQ := pl.newQueue(0)
	rootP := &producer{
		pl:   pl,
		self: &node{id: 0, done: make(chan struct{})},
		q:    rootQ,
		slab: rootQ.NewSlab(),
	}
	go pl.consume(sink, rootQ)
	if opt.Context != nil {
		ctx := opt.Context
		stop := context.AfterFunc(ctx, func() { pl.fail(ctx.Err()) })
		defer stop()
	}
	main := &Task{id: 0, pr: rootP}
	func() {
		defer func() {
			if r := recover(); r != nil {
				// Tear the pipeline down before re-raising the user's
				// panic so no goroutine is left blocked.
				pl.fail(fmt.Errorf("goinstr: root task panicked: %v", r))
				rootQ.Close()
				pl.wg.Wait()
				<-pl.consumerDone
				panic(r)
			}
		}()
		root(main)
		for main.JoinLeft() {
		}
	}()
	rootP.emit(fj.Event{Kind: fj.EvHalt, T: 0})
	rootP.flush()
	rootQ.Close()
	bodiesDone := make(chan struct{})
	go func() { pl.wg.Wait(); close(bodiesDone) }()
	var ctxDone <-chan struct{}
	if opt.Context != nil {
		ctxDone = opt.Context.Done()
	}
	select {
	case <-bodiesDone:
	case <-ctxDone:
		// The deadline expired: return promptly instead of waiting for
		// straggler bodies. Their instrumented operations are no-ops
		// from here on (the pipeline is failed), so they can only touch
		// their own state; a body that never returns is leaked, exactly
		// as with any cancelled goroutine in Go.
	}
	<-pl.consumerDone
	res := Result{Tasks: pl.tasks, Stats: pl.ingestStats()}
	pl.mu.Lock()
	err := pl.err
	pl.mu.Unlock()
	return res, err
}

// ingestStats aggregates the per-queue backpressure counters.
func (pl *pipeline) ingestStats() obs.Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var s obs.Stats
	for _, q := range pl.queues {
		if q == nil {
			continue
		}
		qs := q.Stats()
		s.Producers++
		s.EventsBuffered += qs.Pushed
		s.ProducerStalls += qs.Stalls
		if qs.MaxDepth > s.MaxQueueDepth {
			s.MaxQueueDepth = qs.MaxDepth
		}
	}
	return s
}

// IsCancellation reports whether err is a context cancellation or
// deadline error — the case where RunPipeline's Result still carries a
// meaningful (drained) prefix.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
