package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fj"
	"repro/internal/workload"
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

// TestBlockFarTaskIDsShipRaw: the delta decoder refuses task ids past
// maxBlockTask, while the raw form carries any id. A batch holding one
// must ship raw, however well its deltas compress, or the encoder emits
// a block no decoder accepts.
func TestBlockFarTaskIDsShipRaw(t *testing.T) {
	far := []fj.Event{}
	for i := 0; i < 64; i++ {
		far = append(far,
			fj.Event{Kind: fj.EvFork, T: 1, U: maxBlockTask + 1},
			fj.Event{Kind: fj.EvWrite, T: maxBlockTask + 1, Loc: 7})
	}
	var enc BlockEncoder
	var dec BlockDecoder
	if s := blockScheme(t, roundTripBlock(t, &enc, &dec, 1, far)); s != blockRaw {
		t.Fatalf("scheme %d, want %d (raw)", s, blockRaw)
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
		// a valid block with a byte past its body
		"trailing byte": append(append([]byte(nil), good...), 0),
		// scheme raw, one read of location 0 with its task id spelled in
		// two bytes instead of one: the declared raw length overstates
		// the record form the event re-encodes to
		"non-canonical raw": {5, 1, 4, blockRaw, byte(fj.EvRead), 0x80, 0x00, 0},
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

// hostileBlock is 16 bytes that claim 4,194,304 events in a raw length
// of 1: one literal write by task 0 to location 0 (3 bytes in record
// form), then one copy run repeating it 4,194,303 times. Decoded, it
// would be a 146 MiB slab whose record form is 12,582,912 bytes.
var hostileBlock = []byte{
	1,                      // seq
	0x80, 0x80, 0x80, 0x02, // count 1<<22
	1,                         // raw length
	blockDelta,                // scheme
	0, byte(fj.EvWrite), 0, 0, // literal: dT 0, dX 0
	0xff, 0xff, 0xff, 0x01, // copy run of 1<<22 - 1
	1, // lag
}

// TestBlockDecoderChecksDeclaredSizes pins that a block cannot lie
// about its size: the event count must fit the declared raw length,
// and the delta schemes must decode to exactly that many record-form
// bytes, so the server's raw-byte accounting (and the compression
// ratio it reports) counts what the client actually sent.
func TestBlockDecoderChecksDeclaredSizes(t *testing.T) {
	if len(hostileBlock) != 16 {
		t.Fatalf("hostile block is %d bytes, want 16", len(hostileBlock))
	}
	var dec BlockDecoder
	if _, out, _, err := dec.DecodeBlockInto(nil, hostileBlock); err == nil {
		t.Fatalf("decoder accepted %d events declared in a raw length of 1", len(out))
	}

	// Four writes (12 record-form bytes) declared as 100: the count fits,
	// the size does not, on both the delta and the delta+flate schemes.
	events := []fj.Event{
		{Kind: fj.EvWrite, T: 1, Loc: 2},
		{Kind: fj.EvWrite, T: 1, Loc: 2},
		{Kind: fj.EvWrite, T: 1, Loc: 2},
		{Kind: fj.EvWrite, T: 1, Loc: 2},
	}
	// Literal (dT 1, dX 2), literal (dT 0, dX 0), then a copy of 2 at
	// lag 1; deltas are zigzag varints.
	stream := []byte{0, byte(fj.EvWrite), 2, 4, 0, byte(fj.EvWrite), 0, 0, 2, 1}
	for _, rawLen := range []byte{12, 100} {
		delta := append([]byte{7, 4, rawLen, blockDelta}, stream...)
		flated := append([]byte{7, 4, rawLen, blockDeltaFlate, byte(len(stream))},
			new(BlockEncoder).deflate(stream)...)
		for name, payload := range map[string][]byte{"delta": delta, "delta+flate": flated} {
			var dec BlockDecoder
			_, out, got, err := dec.DecodeBlockInto(nil, payload)
			if rawLen != 12 {
				if err == nil {
					t.Errorf("%s: raw length %d accepted for a 12-byte record form", name, rawLen)
				}
				continue
			}
			if err != nil || got != 12 || len(out) != len(events) {
				t.Fatalf("%s: honest block: %d events, raw %d, %v", name, len(out), got, err)
			}
			for i := range events {
				if out[i] != events[i] {
					t.Fatalf("%s: event %d: %v, want %v", name, i, out[i], events[i])
				}
			}
		}
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
	h := Hello{Engine: "2d", BatchSize: 128, Token: 0xfeed, Caps: CapTenant}
	got, err := DecodeHelloV3(EncodeHelloV3(h))
	if err != nil || got != h {
		t.Fatalf("hello v3 round trip: %+v -> %+v (%v)", h, got, err)
	}
	// The trailing auth credential rides after RouteKey and round-trips;
	// a hello without it decodes with Auth empty (older senders).
	ha := Hello{Engine: "2d", Caps: CapTenant, RouteKey: 9, Auth: "acme:s3cret"}
	gotA, err := DecodeHelloV3(EncodeHelloV3(ha))
	if err != nil || gotA != ha {
		t.Fatalf("hello v3 auth round trip: %+v -> %+v (%v)", ha, gotA, err)
	}
	// A pre-Auth payload (ends after the route key) and a pre-RouteKey
	// payload (ends after the caps) still decode: both trailing fields
	// are optional. Route key 9 and an empty credential are one byte
	// each on the wire.
	full := EncodeHelloV3(Hello{Engine: "2d", Caps: CapTenant, RouteKey: 9})
	gotOld, err := DecodeHelloV3(full[:len(full)-1])
	if err != nil || gotOld.Auth != "" || gotOld.RouteKey != 9 {
		t.Fatalf("pre-auth hello: %+v (%v)", gotOld, err)
	}
	gotOlder, err := DecodeHelloV3(full[:len(full)-2])
	if err != nil || gotOlder.RouteKey != 0 || gotOlder.Caps != CapTenant {
		t.Fatalf("pre-route-key hello: %+v (%v)", gotOlder, err)
	}

	w := Welcome{Session: 3, Token: 0xbeef, NextSeq: 17, Caps: CapTenant}
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

// literalStream is the delta token stream of literalEvents written as
// four literals, no copy token: task 1 writes locations 2, 3, 4 and 5.
// Each literal is 4 bytes against a 3-byte record, so the 16-byte
// stream is longer than the 12-byte record form.
var literalStream = []byte{
	0, byte(fj.EvWrite), 2, 4, // dT 1, dX 2 (zigzag)
	0, byte(fj.EvWrite), 0, 2, // dT 0, dX 1
	0, byte(fj.EvWrite), 0, 2,
	0, byte(fj.EvWrite), 0, 2,
}

var literalEvents = []fj.Event{
	{Kind: fj.EvWrite, T: 1, Loc: 2},
	{Kind: fj.EvWrite, T: 1, Loc: 3},
	{Kind: fj.EvWrite, T: 1, Loc: 4},
	{Kind: fj.EvWrite, T: 1, Loc: 5},
}

// deltaFlateBlock frames literalStream as a scheme 3 block declaring
// an inflated delta length of dl.
func deltaFlateBlock(dl uint64) []byte {
	b := []byte{7, byte(len(literalEvents)), byte(fj.EventsSize(literalEvents)), blockDeltaFlate}
	b = binary.AppendUvarint(b, dl)
	return append(b, new(BlockEncoder).deflate(literalStream)...)
}

// TestBlockDecodesDeltaFlateLongerThanRaw: flate runs over the delta
// stream even where that stream is longer than the record form, so the
// decoder must accept a scheme 3 block whose inflated stream exceeds
// rawLen.
func TestBlockDecodesDeltaFlateLongerThanRaw(t *testing.T) {
	if len(literalStream) <= fj.EventsSize(literalEvents) {
		t.Fatalf("stream %d bytes, record form %d: the stream must be the longer", len(literalStream), fj.EventsSize(literalEvents))
	}
	var dec BlockDecoder
	seq, out, rawLen, err := dec.DecodeBlockInto(nil, deltaFlateBlock(uint64(len(literalStream))))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if seq != 7 || rawLen != fj.EventsSize(literalEvents) || len(out) != len(literalEvents) {
		t.Fatalf("seq %d, raw %d, %d events", seq, rawLen, len(out))
	}
	for i := range literalEvents {
		if out[i] != literalEvents[i] {
			t.Fatalf("event %d: %v, want %v", i, out[i], literalEvents[i])
		}
	}
}

// TestBlockDecoderBoundsDeltaLength: no token is longer than
// maxTokenBytes, so a scheme 3 block declaring a longer delta stream
// than its events could need is refused before inflating.
func TestBlockDecoderBoundsDeltaLength(t *testing.T) {
	if maxTokenBytes != 22 {
		t.Fatalf("maxTokenBytes = %d, want 22", maxTokenBytes)
	}
	var dec BlockDecoder
	_, _, _, err := dec.DecodeBlockInto(nil, deltaFlateBlock(maxTokenBytes*uint64(len(literalEvents))+1))
	if err == nil || !strings.Contains(err.Error(), "implausible delta length") {
		t.Fatalf("got %v, want an implausible delta length error", err)
	}
}

// forkJoinEvents records random fork-join programs back to back and
// returns the first n events. Every session events start a fresh run,
// whose task ids restart at 0, as in one streamed session.
func forkJoinEvents(tb testing.TB, seed int64, n, session int, mix workload.Mix) []fj.Event {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []fj.Event
	for len(out) < n {
		tr := &fj.Trace{}
		_, err := fj.Run(func(t *fj.Task) {
			for len(tr.Events) < session {
				workload.ForkJoin{Seed: rng.Int63(), Ops: 400, MaxDepth: 8, Mix: mix}.Program()(t)
			}
		}, tr, fj.Options{AutoJoin: true})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, tr.Events...)
	}
	return out[:n]
}

// blockScheme returns the scheme byte of an encoded block.
func blockScheme(tb testing.TB, payload []byte) byte {
	tb.Helper()
	for range 3 { // seq, count, rawLen
		_, k := binary.Uvarint(payload)
		if k <= 0 {
			tb.Fatal("truncated block header")
		}
		payload = payload[k:]
	}
	return payload[0]
}

// TestBlockRandomAddressShipsDeltaFlate: on a random-address fork-join
// block the delta stream does not beat the record form before flate,
// yet flate over the delta stream beats flate over the record form.
// The encoder must pick delta+flate, not flate over raw records.
func TestBlockRandomAddressShipsDeltaFlate(t *testing.T) {
	events := forkJoinEvents(t, 1, 4096, 4096, workload.Mix{Locs: 128, ReadFrac: 0.8, Block: 2})
	var enc BlockEncoder
	var dec BlockDecoder
	payload := roundTripBlock(t, &enc, &dec, 1, events)
	if s := blockScheme(t, payload); s != blockDeltaFlate {
		t.Fatalf("scheme %d, want %d (delta+flate)", s, blockDeltaFlate)
	}
}

// codecClasses are the traces BenchmarkBlockCodec cuts into blocks,
// shaped like the `perfbench` inputs: the stream pipeline, the stream
// fork-join trace (one long run), and the random-address verdicts
// traces (~4,000-event sessions back to back).
func codecClasses(tb testing.TB) map[string][]fj.Event {
	pipe := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 16, Items: 500, Payload: 4, Shared: true, RacySharing: true}).Run(pipe); err != nil {
		tb.Fatal(err)
	}
	const n = 1 << 17
	return map[string][]fj.Event{
		"pipeline":       pipe.Events[:min(n, len(pipe.Events))],
		"fork-join":      forkJoinEvents(tb, 1, n, n, workload.Mix{Locs: 1 << 16, ReadFrac: 1, Block: 4}),
		"random-address": forkJoinEvents(tb, 2, n, 4000, workload.Mix{Locs: 128, ReadFrac: 0.8, Block: 2}),
	}
}

// BenchmarkBlockCodec prices the block size: each class's trace is cut
// into blocks of frame events, encoded, and decoded back. It reports
// wire bytes and encode/decode ns per event; EXPERIMENTS E17 records
// the table behind client.DefaultFrameEvents.
//
//	go test -run=NONE -bench BlockCodec ./internal/wire
func BenchmarkBlockCodec(b *testing.B) {
	classes := codecClasses(b)
	for _, frame := range []int{512, 1024, 2048, 4096, 8192} {
		for _, class := range []string{"pipeline", "fork-join", "random-address"} {
			events := classes[class]
			b.Run(fmt.Sprintf("frame=%d/%s", frame, class), func(b *testing.B) {
				var enc BlockEncoder
				var dec BlockDecoder
				var buf []byte
				slab := make([]fj.Event, 0, frame)
				var encNs, decNs time.Duration
				for range b.N {
					for off := 0; off < len(events); off += frame {
						cut := events[off:min(off+frame, len(events))]
						t0 := time.Now()
						buf = enc.AppendBlock(buf[:0], 1, cut)
						t1 := time.Now()
						var err error
						if _, slab, _, err = dec.DecodeBlockInto(slab[:0], buf); err != nil || len(slab) != len(cut) {
							b.Fatalf("block at %d does not round-trip: %v", off, err)
						}
						encNs += t1.Sub(t0)
						decNs += time.Since(t1)
					}
				}
				total := float64(b.N) * float64(len(events))
				b.ReportMetric(float64(enc.WireBytes)/total, "B/event")
				b.ReportMetric(float64(encNs)/total, "enc-ns/event")
				b.ReportMetric(float64(decNs)/total, "dec-ns/event")
			})
		}
	}
}
