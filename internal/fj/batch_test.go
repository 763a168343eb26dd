package fj

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// traceEqual reports whether two traces carry identical event sequences.
func traceEqual(a, b *Trace) bool {
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// longTrace records a program whose stream spans several
// DefaultBatchSize runs and ends mid-run, so decoders and replayers
// cross batch boundaries.
func longTrace(t *testing.T) *Trace {
	t.Helper()
	var tr Trace
	body := func(root *Task) {
		h := root.Fork(func(c *Task) {
			for i := 0; i < DefaultBatchSize; i++ {
				c.Write(core.Addr(i))
			}
		})
		for i := 0; i < DefaultBatchSize+DefaultBatchSize/2; i++ {
			root.Read(core.Addr(i))
		}
		root.Join(h)
	}
	if _, err := Run(body, &tr, Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events)%DefaultBatchSize == 0 || len(tr.Events) < 2*DefaultBatchSize {
		t.Fatalf("long trace has %d events; want several partial runs", len(tr.Events))
	}
	return &tr
}

// TestDecodeTraceIntoBatched: the streaming batched decoder must deliver
// the same events as the one-shot decoder, both into a Trace and into a
// detector, across batch boundaries.
func TestDecodeTraceIntoBatched(t *testing.T) {
	tr := longTrace(t)
	var enc bytes.Buffer
	if err := tr.Encode(&enc); err != nil {
		t.Fatal(err)
	}

	var got Trace
	n, err := DecodeTraceInto(bytes.NewReader(enc.Bytes()), &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tr.Events) || !traceEqual(tr, &got) {
		t.Fatalf("streamed decode differs: %d events, want %d", n, len(tr.Events))
	}

	want := NewDetectorSink(4)
	tr.Replay(want)
	d := NewDetectorSink(4)
	if _, err := DecodeTraceInto(bytes.NewReader(enc.Bytes()), d); err != nil {
		t.Fatal(err)
	}
	if d.Racy() != want.Racy() || len(d.Races()) != len(want.Races()) {
		t.Fatalf("decoded replay: racy=%v races=%d, want racy=%v races=%d",
			d.Racy(), len(d.Races()), want.Racy(), len(want.Races()))
	}
}

// TestMultiSinkEventBatch: a batch fanned out through MultiSink reaches
// batch-aware and plain sinks alike.
func TestMultiSinkEventBatch(t *testing.T) {
	var tr Trace
	if _, err := Run(figure2, &tr, Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	var viaBatch Trace             // BatchSink destination
	plain := NewUncompressedSink() // per-event only destination
	want := NewUncompressedSink()
	tr.Replay(want)
	MultiSink{&viaBatch, plain}.EventBatch(tr.Events)
	if !traceEqual(&tr, &viaBatch) {
		t.Fatal("batch-aware destination saw a different stream")
	}
	if plain.D.W.Len() != want.D.W.Len() {
		t.Fatalf("plain destination diverged: %d vs %d vertices", plain.D.W.Len(), want.D.W.Len())
	}
}

// TestReplayBatchesEquivalence: replaying in DefaultBatchSize runs
// reaches a batch-aware sink unchanged and a per-event sink with the
// same verdict as a one-by-one replay.
func TestReplayBatchesEquivalence(t *testing.T) {
	tr := longTrace(t)
	var got Trace
	tr.ReplayBatches(&got)
	if !traceEqual(tr, &got) {
		t.Fatalf("batched replay differs (%d vs %d events)", len(got.Events), len(tr.Events))
	}
	want, d := NewDetectorSink(4), NewDetectorSink(4)
	tr.Replay(want)
	tr.ReplayBatches(d)
	if d.Stats() != want.Stats() || len(d.Races()) != len(want.Races()) {
		t.Fatalf("batched replay verdict differs: %d races, want %d", len(d.Races()), len(want.Races()))
	}
}
