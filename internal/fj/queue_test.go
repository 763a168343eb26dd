package fj

import (
	"sync"
	"testing"
	"time"
)

func TestEventQueueFIFO(t *testing.T) {
	q := NewEventQueue(64, 4)
	for i := 0; i < 3; i++ {
		slab := q.NewSlab()
		slab = append(slab, Event{Kind: EvRead, T: ID(i)})
		if err := q.Push(slab); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	for i := 0; i < 3; i++ {
		slab, ok := q.Pop()
		if !ok || len(slab) != 1 || slab[0].T != ID(i) {
			t.Fatalf("pop %d: slab=%v ok=%v", i, slab, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on closed drained queue")
	}
	if err := q.Push(q.NewSlab()); err != ErrQueueClosed {
		t.Fatalf("push after close: err = %v", err)
	}
}

func TestEventQueueBackpressureBlocksProducer(t *testing.T) {
	const capacity = 8
	q := NewEventQueue(capacity, 4)
	full := make([]Event, 4)

	// Fill to capacity; the next push must block until the consumer pops.
	if err := q.Push(full); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(full); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		if err := q.Push(full); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-pushed:
		t.Fatal("push over capacity did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	select {
	case <-pushed:
	case <-time.After(time.Second):
		t.Fatal("push did not unblock after pop")
	}
	s := q.Stats()
	if s.Stalls == 0 {
		t.Fatal("stall not counted")
	}
	if s.MaxDepth > capacity {
		t.Fatalf("max depth %d exceeds capacity %d", s.MaxDepth, capacity)
	}
	if s.Pushed != 12 {
		t.Fatalf("pushed = %d, want 12", s.Pushed)
	}
}

func TestEventQueueOversizedSlabProgresses(t *testing.T) {
	q := NewEventQueue(4, 4)
	big := make([]Event, 16) // larger than the whole capacity
	done := make(chan error, 1)
	go func() { done <- q.Push(big) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("oversized slab deadlocked on an empty queue")
	}
	if slab, ok := q.Pop(); !ok || len(slab) != 16 {
		t.Fatalf("pop: len=%d ok=%v", len(slab), ok)
	}
}

func TestEventQueueCancelUnblocksBothSides(t *testing.T) {
	q := NewEventQueue(4, 4)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer blocked on a full queue
		defer wg.Done()
		if err := q.Push(make([]Event, 4)); err != nil {
			t.Error(err)
		}
		if err := q.Push(make([]Event, 4)); err != nil { // blocks, then dropped
			t.Error(err)
		}
	}()
	go func() { // consumer draining after cancel
		defer wg.Done()
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Cancel()
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not unblock producer and consumer")
	}
}

func TestEventQueueRecycleReusesSlabs(t *testing.T) {
	q := NewEventQueue(64, 8)
	slab := q.NewSlab()
	slab = append(slab, Event{Kind: EvRead})
	if err := q.Push(slab); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Pop()
	q.Recycle(got)
	reused := q.NewSlab()
	if cap(reused) != cap(got) {
		t.Fatalf("slab not reused: cap %d vs %d", cap(reused), cap(got))
	}
}

// TestEventQueueHandoff: a producer and a concurrent consumer that
// recycles every slab; events arrive in order across many slabs and the
// stats count every push.
func TestEventQueueHandoff(t *testing.T) {
	q := NewEventQueue(64, 8)
	const slabs = 100
	var got []Event
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			slab, ok := q.Pop()
			if !ok {
				return
			}
			got = append(got, slab...)
			q.Recycle(slab)
		}
	}()
	n := 0
	for i := 0; i < slabs; i++ {
		slab := q.NewSlab()
		for j := 0; j < cap(slab); j++ {
			slab = append(slab, Event{Kind: EvRead, T: ID(n)})
			n++
		}
		if err := q.Push(slab); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("received %d events, sent %d", len(got), n)
	}
	for i, e := range got {
		if e.T != ID(i) {
			t.Fatalf("got[%d].T = %d, want %d (order lost)", i, e.T, i)
		}
	}
	if st := q.Stats(); st.Pushed != uint64(n) {
		t.Fatalf("stats pushed %d, want %d", st.Pushed, n)
	}
}
