package fj

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceRoundTrip(t *testing.T) {
	var tr Trace
	if _, err := Run(figure2, &tr, Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %v vs %v", i, got.Events[i], tr.Events[i])
		}
	}
	// The decoded trace detects the same race.
	ds := NewDetectorSink(4)
	got.Replay(ds)
	if !ds.Racy() {
		t.Fatal("decoded trace lost the race")
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Trace
		if _, err := Run(randomProgram(rng, 2+rng.Intn(50), 4), &tr, Options{AutoJoin: true}); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := DecodeTrace(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"":                             "decode trace",
		"XYZW":                         "bad magic",
		string(TraceMagic[:]):          "decode trace", // missing count
		string(TraceMagic[:]) + "\x05": "decode trace", // truncated events
	}
	for in, wantSub := range cases {
		_, err := DecodeTrace(strings.NewReader(in))
		if err == nil {
			t.Errorf("DecodeTrace(%q) succeeded", in)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("DecodeTrace(%q) = %v, want substring %q", in, err, wantSub)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(TraceMagic[:])
	buf.WriteByte(1)    // one event
	buf.WriteByte(0xEE) // bogus kind
	buf.WriteByte(0)    // task id
	if _, err := DecodeTrace(&buf); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(TraceMagic[:])
	// Varint for 2^40.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	if _, err := DecodeTrace(&buf); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("err = %v", err)
	}
}

// TestDecodeLyingCountAllocatesLittle: a header under the sanity cap
// that declares far more events than the input holds must not presize
// for them (FuzzDecodeTrace found 4 GiB presizes that got the fuzzing
// process killed).
func TestDecodeLyingCountAllocatesLittle(t *testing.T) {
	data := append(append([]byte(nil), TraceMagic[:]...), binary.AppendUvarint(nil, 1<<22)...)
	data = append(data, byte(EvHalt), 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("decoded a trace declaring 4M events in 2 bytes")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("decoding a 12-byte trace allocated %d bytes", n)
	}
}

func TestEncodeCompact(t *testing.T) {
	var tr Trace
	if _, err := Run(figure2, &tr, Options{AutoJoin: true}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Small traces should be a handful of bytes per event, not the ~24
	// of the in-memory struct.
	if perEvent := buf.Len() / len(tr.Events); perEvent > 6 {
		t.Fatalf("encoding uses %d bytes/event", perEvent)
	}
}
