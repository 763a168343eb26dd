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

// longTrace records a fork-join program of several hundred events.
func longTrace(t *testing.T) *Trace {
	t.Helper()
	const run = 256
	var tr Trace
	body := func(root *Task) {
		h := root.Fork(func(c *Task) {
			for i := 0; i < run; i++ {
				c.Write(core.Addr(i))
			}
		})
		for i := 0; i < run+run/2; i++ {
			root.Read(core.Addr(i))
		}
		root.Join(h)
	}
	if _, err := Run(body, &tr, Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	return &tr
}

// TestDecodeTraceIntoLong: the streaming decoder must deliver the same
// events as the one-shot decoder, both into a Trace and into a
// detector.
func TestDecodeTraceIntoLong(t *testing.T) {
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
