package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fj"
)

// roundTripBlock encodes events through enc and decodes them back,
// asserting seq and events survive exactly.
func roundTripBlock(t *testing.T, enc *BlockEncoder, dec *BlockDecoder, seq uint64, events []fj.Event) []byte {
	t.Helper()
	payload := enc.AppendBlock(nil, seq, events)
	gotSeq, got, rawLen, err := dec.DecodeBlockInto(nil, payload)
	if err != nil {
		t.Fatalf("DecodeBlockInto: %v", err)
	}
	if gotSeq != seq {
		t.Fatalf("seq = %d, want %d", gotSeq, seq)
	}
	if rawLen != len(fj.AppendEvents(nil, events)) {
		t.Fatalf("rawLen = %d, want %d", rawLen, len(fj.AppendEvents(nil, events)))
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], events[i])
		}
	}
	return payload
}

func TestBlockRoundTrip(t *testing.T) {
	var enc BlockEncoder
	var dec BlockDecoder
	roundTripBlock(t, &enc, &dec, 1, nil)
	roundTripBlock(t, &enc, &dec, 2, sampleEvents())
	// Extreme field values: huge addresses, large task ids, wraparound
	// deltas in both directions.
	roundTripBlock(t, &enc, &dec, 3, []fj.Event{
		{Kind: fj.EvWrite, T: 0, Loc: ^fj.Addr(0)},
		{Kind: fj.EvRead, T: 1 << 30, Loc: 0},
		{Kind: fj.EvFork, T: 0, U: 1 << 30},
		{Kind: fj.EvJoin, T: 1 << 30, U: 0},
		{Kind: fj.EvHalt, T: 3},
	})
}

// TestBlockCompressesRepetitiveTrace pins the tentpole claim: the
// regular fork-join event structure (a pipeline-like read/write loop
// over striding addresses) must compress well past the 4x acceptance
// bar — in fact to well under a byte per event.
func TestBlockCompressesRepetitiveTrace(t *testing.T) {
	var events []fj.Event
	for i := 0; i < 4096; i++ {
		loc := fj.Addr(0x1000 + 8*(i%16))
		events = append(events, fj.Event{Kind: fj.EvRead, T: i % 4, Loc: loc})
		events = append(events, fj.Event{Kind: fj.EvWrite, T: i % 4, Loc: loc + 1})
	}
	var enc BlockEncoder
	var dec BlockDecoder
	payload := roundTripBlock(t, &enc, &dec, 9, events)
	raw := len(fj.AppendEvents(nil, events))
	if ratio := float64(raw) / float64(len(payload)); ratio < 4 {
		t.Fatalf("compression ratio %.2f < 4 (raw %d, wire %d)", ratio, raw, len(payload))
	}
	if bpe := float64(len(payload)) / float64(len(events)); bpe > 1.0 {
		t.Fatalf("bytes/event %.3f > 1.0 on a repetitive trace", bpe)
	}
	if enc.Blocks != 1 || enc.RawBytes == 0 || enc.WireBytes == 0 {
		t.Fatalf("encoder accounting: %+v", enc)
	}
}

// TestBlockIncompressibleFallsBack feeds a batch with no structure at
// all (random tasks, random addresses) and checks the codec never
// expands the batch beyond the raw form plus the small block header.
func TestBlockIncompressibleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var events []fj.Event
	for i := 0; i < 2000; i++ {
		events = append(events, fj.Event{
			Kind: fj.EvRead + fj.EventKind(rng.Intn(2)),
			T:    rng.Intn(1 << 20),
			Loc:  fj.Addr(rng.Uint64()),
		})
	}
	var enc BlockEncoder
	var dec BlockDecoder
	payload := roundTripBlock(t, &enc, &dec, 4, events)
	raw := len(fj.AppendEvents(nil, events))
	if len(payload) > raw+32 {
		t.Fatalf("incompressible batch expanded: wire %d, raw %d", len(payload), raw)
	}
}

// TestBlockSelfContained checks that a block decodes identically on a
// fresh decoder — the property resume depends on, since a resent block
// may land on a freshly restarted server.
func TestBlockSelfContained(t *testing.T) {
	var enc BlockEncoder
	warm := enc.AppendBlock(nil, 1, sampleEvents())
	second := enc.AppendBlock(nil, 2, sampleEvents())

	var warmDec BlockDecoder
	if _, _, _, err := warmDec.DecodeBlockInto(nil, warm); err != nil {
		t.Fatalf("warm decode: %v", err)
	}
	_, a, _, err := warmDec.DecodeBlockInto(nil, second)
	if err != nil {
		t.Fatalf("warm decode of second block: %v", err)
	}
	var coldDec BlockDecoder
	_, b, _, err := coldDec.DecodeBlockInto(nil, second)
	if err != nil {
		t.Fatalf("cold decode of second block: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("warm and cold decode disagree: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: warm %v, cold %v", i, a[i], b[i])
		}
	}
}

// TestBlockDecoderRejectsHostileInput covers the corruption vocabulary
// the decoder must refuse: truncations, bad schemes, lying headers, and
// copy tokens reaching outside the window.
func TestBlockDecoderRejectsHostileInput(t *testing.T) {
	var enc BlockEncoder
	good := enc.AppendBlock(nil, 5, sampleEvents())

	cases := map[string][]byte{
		"empty":         {},
		"zero seq":      {0x00},
		"truncated hdr": good[:2],
		"bad scheme":    {5, 1, 4, 99, 1, 2, 3, 4},
		// scheme raw with a body shorter than the declared raw length
		"raw length lie": {5, 2, 10, blockRaw, 0, 0},
		// scheme delta, copy token before any literal exists
		"copy from nothing": {5, 2, 4, blockDelta, 2, 1},
		// scheme delta, literal then a copy with lag 0
		"zero lag": {5, 2, 4, blockDelta, 0, byte(fj.EvHalt), 0, 1, 0},
		// scheme flate with garbage body
		"flate garbage": {5, 2, 4, blockFlate, 0xde, 0xad, 0xbe, 0xef},
	}
	for name, payload := range cases {
		var dec BlockDecoder
		if _, _, _, err := dec.DecodeBlockInto(nil, payload); err == nil {
			t.Errorf("%s: decoder accepted hostile payload", name)
		}
	}

	// Every single-byte truncation of a valid payload must error (the
	// CRC layer normally catches this, but the decoder must hold alone).
	for cut := 0; cut < len(good); cut++ {
		var dec BlockDecoder
		if _, _, _, err := dec.DecodeBlockInto(nil, good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Truncation mid-payload must be classifiable; a cut inside a delta
	// token stream reports ErrTruncated.
	repetitive := make([]fj.Event, 256)
	for i := range repetitive {
		repetitive[i] = fj.Event{Kind: fj.EvWrite, T: 1, Loc: 0x40}
	}
	deltaBlock := enc.AppendBlock(nil, 6, repetitive)
	var dec BlockDecoder
	if _, _, _, err := dec.DecodeBlockInto(nil, deltaBlock[:len(deltaBlock)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("tail truncation: got %v, want ErrTruncated", err)
	}
}

// TestBlockDecodeIntoReusesSlab checks DecodeBlockInto appends to the
// caller's buffer without per-event allocation once capacity exists.
func TestBlockDecodeIntoReusesSlab(t *testing.T) {
	events := make([]fj.Event, 0, 512)
	for i := 0; i < 256; i++ {
		events = append(events, fj.Event{Kind: fj.EvWrite, T: 1, Loc: fj.Addr(i)})
	}
	var enc BlockEncoder
	payload := enc.AppendBlock(nil, 1, events)
	var dec BlockDecoder
	if _, _, _, err := dec.DecodeBlockInto(nil, payload); err != nil {
		t.Fatalf("warmup decode: %v", err)
	}
	slab := make([]fj.Event, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		_, out, _, err := dec.DecodeBlockInto(slab[:0], payload)
		if err != nil || len(out) != len(events) {
			t.Fatalf("decode: %d events, %v", len(out), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeBlockInto allocates %.1f/op into a presized slab", allocs)
	}
}

func TestHelloWelcomeV3RoundTrip(t *testing.T) {
	h := Hello{Engine: "2d", BatchSize: 128, Token: 0xfeed, Caps: CapCompress}
	got, err := DecodeHelloV3(EncodeHelloV3(h))
	if err != nil || got != h {
		t.Fatalf("hello v3 round trip: %+v -> %+v (%v)", h, got, err)
	}
	// The trailing auth credential rides after RouteKey and round-trips;
	// a hello without it decodes with Auth empty (older senders).
	ha := Hello{Engine: "2d", Caps: CapCompress | CapTenant, RouteKey: 9, Auth: "acme:s3cret"}
	gotA, err := DecodeHelloV3(EncodeHelloV3(ha))
	if err != nil || gotA != ha {
		t.Fatalf("hello v3 auth round trip: %+v -> %+v (%v)", ha, gotA, err)
	}
	// A pre-Auth payload (ends after the route key) and a pre-RouteKey
	// payload (ends after the caps) still decode: both trailing fields
	// are optional. Route key 9 and an empty credential are one byte
	// each on the wire.
	full := EncodeHelloV3(Hello{Engine: "2d", Caps: CapCompress, RouteKey: 9})
	gotOld, err := DecodeHelloV3(full[:len(full)-1])
	if err != nil || gotOld.Auth != "" || gotOld.RouteKey != 9 {
		t.Fatalf("pre-auth hello: %+v (%v)", gotOld, err)
	}
	gotOlder, err := DecodeHelloV3(full[:len(full)-2])
	if err != nil || gotOlder.RouteKey != 0 || gotOlder.Caps != CapCompress {
		t.Fatalf("pre-route-key hello: %+v (%v)", gotOlder, err)
	}

	w := Welcome{Session: 3, Token: 0xbeef, NextSeq: 17, Caps: CapCompress}
	gotW, err := DecodeWelcomeV3(EncodeWelcomeV3(w))
	if err != nil || gotW != w {
		t.Fatalf("welcome v3 round trip: %+v -> %+v (%v)", w, gotW, err)
	}
	wp := EncodeWelcomeV3(w)
	if _, err := DecodeWelcomeV3(wp[:len(wp)-1]); err == nil {
		t.Fatal("welcome missing its caps must error")
	}
}

func TestMagicV3(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, []byte("RDS\x03")) {
		t.Fatalf("magic = %q, want \"RDS\\x03\"", got)
	}
	if err := ReadMagic(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadMagic: %v", err)
	}
}

// benchEvents is a pipeline-shaped batch: regular per-cell access
// patterns whose absolute addresses drift between cells, which is what
// the greedy matcher actually faces in production traces.
func benchEvents(n int) []fj.Event {
	var events []fj.Event
	for i := 0; len(events) < n; i++ {
		st := fj.Addr(0x100000 + i%8)
		it := fj.Addr(0x200000 + i/8)
		buf := fj.Addr(0x400000) + 4*fj.Addr(i)
		events = append(events,
			fj.Event{Kind: fj.EvRead, T: i % 64, Loc: st},
			fj.Event{Kind: fj.EvWrite, T: i % 64, Loc: st},
			fj.Event{Kind: fj.EvRead, T: i % 64, Loc: it},
			fj.Event{Kind: fj.EvWrite, T: i % 64, Loc: it},
		)
		for k := fj.Addr(0); k < 4; k++ {
			events = append(events,
				fj.Event{Kind: fj.EvWrite, T: i % 64, Loc: buf + k},
				fj.Event{Kind: fj.EvRead, T: i % 64, Loc: buf + k},
			)
		}
		events = append(events, fj.Event{Kind: fj.EvRead, T: i % 64, Loc: 1})
	}
	return events[:n]
}

func BenchmarkAppendBlock(b *testing.B) {
	events := benchEvents(4096)
	var enc BlockEncoder
	var dst []byte
	b.SetBytes(int64(len(fj.AppendEvents(nil, events))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc.AppendBlock(dst[:0], 1, events)
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	events := benchEvents(4096)
	var enc BlockEncoder
	payload := enc.AppendBlock(nil, 1, events)
	var dec BlockDecoder
	dst := make([]fj.Event, 0, len(events))
	b.SetBytes(int64(len(fj.AppendEvents(nil, events))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, dst, _, err = dec.DecodeBlockInto(dst[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
	}
}
