package fj

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// encodedFigure2 returns the binary encoding of the figure-2 trace.
func encodedFigure2(t *testing.T) (*Trace, []byte) {
	t.Helper()
	var tr Trace
	if _, err := Run(figure2, &tr, Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return &tr, buf.Bytes()
}

// TestDecodeTruncatedIsSentinel: every strict prefix of a valid trace
// decodes to an error wrapping ErrTruncated — never a raw io error, and
// never success.
func TestDecodeTruncatedIsSentinel(t *testing.T) {
	_, data := encodedFigure2(t)
	for n := 0; n < len(data); n++ {
		_, err := DecodeTrace(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("prefix %d/%d: decode succeeded on a truncated trace", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d/%d: error %v does not wrap ErrTruncated", n, len(data), err)
		}
		if strings.Contains(err.Error(), "EOF") && !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("prefix %d/%d: raw io error leaked: %v", n, len(data), err)
		}
	}
	if _, err := DecodeTrace(bytes.NewReader(data)); err != nil {
		t.Fatalf("full trace: %v", err)
	}
}

// TestDecodeTraceIntoTruncated: at every cut past the header, the
// streaming decoder reports the same sentinel and has delivered every
// event whose record ends before the cut, in order, and no other.
func TestDecodeTraceIntoTruncated(t *testing.T) {
	tr := longTrace(t)
	var enc bytes.Buffer
	if err := tr.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	header := len(data) - len(AppendEvents(nil, tr.Events))
	// ends[k] is the byte offset at which event k's record ends.
	ends := make([]int, len(tr.Events))
	for k := range tr.Events {
		ends[k] = header + len(AppendEvents(nil, tr.Events[:k+1]))
	}
	complete := 0
	for cut := header; cut < len(data); cut++ {
		for complete < len(ends) && ends[complete] <= cut {
			complete++
		}
		var got Trace
		n, err := DecodeTraceInto(bytes.NewReader(data[:cut]), &got)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: error %v does not wrap ErrTruncated", cut, err)
		}
		if n != len(got.Events) {
			t.Fatalf("cut %d: delivered count %d != recorded events %d", cut, n, len(got.Events))
		}
		if n != complete {
			t.Fatalf("cut %d: delivered %d events, want the %d complete before the cut", cut, n, complete)
		}
		for i, e := range got.Events {
			if e != tr.Events[i] {
				t.Fatalf("cut %d: event %d differs: %v vs %v", cut, i, e, tr.Events[i])
			}
		}
	}
}

// TestBadMagicIsNotTruncation: structural corruption is distinguishable
// from a short read.
func TestBadMagicIsNotTruncation(t *testing.T) {
	_, err := DecodeTrace(bytes.NewReader([]byte{'F', 'J', 'T', 9, 0}))
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("bad magic: got %v, want a non-truncation error", err)
	}
}

// TestAppendDecodeEventsRoundTrip: the byte-slice codec round-trips a
// real trace and agrees with the reader-based decoder.
func TestAppendDecodeEventsRoundTrip(t *testing.T) {
	tr, _ := encodedFigure2(t)
	buf := AppendEvents(nil, tr.Events)
	got, rest, err := DecodeEventsBytes(nil, buf, len(tr.Events))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d unconsumed bytes", len(rest))
	}
	if len(got) != len(tr.Events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(tr.Events))
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, got[i], tr.Events[i])
		}
	}
	// Every strict prefix of the record bytes is a truncation.
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeEventsBytes(nil, buf[:n], len(tr.Events)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d: error %v does not wrap ErrTruncated", n, err)
		}
	}
}

// FuzzDecodeEventsBytes fuzzes the byte-slice event decoder: it must
// never panic, and every decode it accepts must survive a
// re-encode/re-decode round trip (varints may be non-minimal in fuzz
// input, so byte-level canonicality is not asserted).
func FuzzDecodeEventsBytes(f *testing.F) {
	var tr Trace
	if _, err := Run(figure2, &tr, Options{AutoJoin: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(AppendEvents(nil, tr.Events), uint16(len(tr.Events)))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xFF, 0x01}, uint16(1))
	f.Add([]byte{byte(EvFork), 0x80}, uint16(1)) // dangling varint
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		events, rest, err := DecodeEventsBytes(nil, data, int(count))
		if err != nil {
			if len(events) > int(count) {
				t.Fatalf("decoded %d events past the requested %d", len(events), count)
			}
			return
		}
		if len(events) != int(count) {
			t.Fatalf("decoded %d events, want %d", len(events), count)
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		re := AppendEvents(nil, events)
		round, tail, err := DecodeEventsBytes(nil, re, len(events))
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-decode failed: %v (tail %d)", err, len(tail))
		}
		for i := range events {
			if round[i] != events[i] {
				t.Fatalf("event %d differs after round trip: %v vs %v", i, round[i], events[i])
			}
		}
	})
}
