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
// the decoder must refuse: truncations, bad schemes, lying headers and
// non-canonical raw records. Copy tokens reaching outside the window
// are scheme 4 refusals (TestBlockHuffmanRefusals).
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
		// scheme huffman with a garbage body
		"huffman garbage": {5, 2, 4, blockHuffman, 0xde, 0xad, 0xbe, 0xef},
		// a valid block with a byte past its body
		"trailing byte": append(append([]byte(nil), good...), 0),
		// scheme raw, one read of location 0 with its task id spelled in
		// two bytes instead of one: the declared raw length overstates
		// the record form the event re-encodes to
		"non-canonical raw": {5, 1, 4, blockRaw, byte(fj.EvRead), 0x80, 0x00, 0},
		// negative task ids, which the encoder can only ship raw: a
		// begin(-5), and a join naming task -3
		"negative task raw": enc.AppendBlock(nil, 1, []fj.Event{{Kind: fj.EvBegin, T: -5}}),
		"negative join raw": enc.AppendBlock(nil, 1, []fj.Event{{Kind: fj.EvBegin}, {Kind: fj.EvJoin, U: -3}}),
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
	// Truncation mid-payload must be classifiable; a cut inside a scheme
	// 4 body reports ErrTruncated.
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

// hostileBlock is 42 bytes that claim 4,194,304 events in a raw length
// of 1: a scheme 4 body holding one literal write by task 0 to location 0 (3 bytes in
// record form), then two copy runs repeating it 4,194,303 times.
// Decoded, it would be a 146 MiB slab whose record form is 12,582,912
// bytes.
var hostileBlock = func() []byte {
	const count, run = 1 << 22, maxCopyRun
	b := huffBlock(count, 1, func(w *bitWriter) {
		cs := testCodes(w, []int{opWrite, opCopy + symOf(run-2), opCopy + symOf(count-1-run-2)},
			[]int{0}, []int{0}, nil, []int{0})
		cs[alphOp].put(w, opWrite)
		putTestValue(w, cs[alphT], 0)
		putTestValue(w, cs[alphA], 0)
		putCopy(w, cs, run, 1)
		putCopy(w, cs, count-1-run, 1)
	})
	b[0] = 1 // seq
	return b
}()

// fourWrites are four writes by task 1 to location 2: 12 bytes in
// record form.
var fourWrites = []fj.Event{
	{Kind: fj.EvWrite, T: 1, Loc: 2},
	{Kind: fj.EvWrite, T: 1, Loc: 2},
	{Kind: fj.EvWrite, T: 1, Loc: 2},
	{Kind: fj.EvWrite, T: 1, Loc: 2},
}

// fourWritesHuffman is fourWrites as a scheme 4 block declaring a raw
// length of rawLen: literal (dT 1, dA 2), literal (dT 0, dA 0), then a
// copy of 2 at lag 1.
func fourWritesHuffman(rawLen int) []byte {
	return huffBlock(len(fourWrites), rawLen, func(w *bitWriter) {
		cs := testCodes(w, []int{opWrite, opWrite, opCopy}, []int{0},
			[]int{symOf(zigzag(1)), 0}, nil, []int{symOf(zigzag(2)), 0})
		for _, d := range [][2]int64{{1, 2}, {0, 0}} {
			cs[alphOp].put(w, opWrite)
			putTestValue(w, cs[alphT], zigzag(d[0]))
			putTestValue(w, cs[alphA], zigzag(d[1]))
		}
		putCopy(w, cs, 2, 1)
	})
}

// TestBlockDecoderChecksDeclaredSizes pins that a block cannot lie
// about its size: the event count must fit the declared raw length,
// and both schemes must decode to exactly that many record-form bytes,
// so the server's raw-byte accounting (and the compression ratio it
// reports) counts what the client actually sent.
func TestBlockDecoderChecksDeclaredSizes(t *testing.T) {
	if s := blockScheme(t, hostileBlock); s != blockHuffman {
		t.Fatalf("hostile block has scheme %d, want %d", s, blockHuffman)
	}
	if len(hostileBlock) != 42 {
		t.Fatalf("hostile block is %d bytes, want 42", len(hostileBlock))
	}
	var dec BlockDecoder
	if _, out, _, err := dec.DecodeBlockInto(nil, hostileBlock); err == nil || !strings.Contains(err.Error(), "cannot fit a raw length of 1") {
		t.Fatalf("hostile block: %d events, %v; want the count bound to refuse it", len(out), err)
	}

	// fourWrites declared as 12 and as 100 bytes: the count fits both,
	// the size only the first, on both the raw and the huffman scheme.
	for _, rawLen := range []int{12, 100} {
		raw := binary.AppendUvarint([]byte{7, 4}, uint64(rawLen))
		raw = fj.AppendEvents(append(raw, blockRaw), fourWrites)
		for name, payload := range map[string][]byte{"raw": raw, "huffman": fourWritesHuffman(rawLen)} {
			var dec BlockDecoder
			_, out, got, err := dec.DecodeBlockInto(nil, payload)
			if rawLen != 12 {
				if err == nil {
					t.Errorf("%s: raw length %d accepted for a 12-byte record form", name, rawLen)
				}
				continue
			}
			if err != nil || got != 12 || len(out) != len(fourWrites) {
				t.Fatalf("%s: honest block: %d events, raw %d, %v", name, len(out), got, err)
			}
			for i := range fourWrites {
				if out[i] != fourWrites[i] {
					t.Fatalf("%s: event %d: %v, want %v", name, i, out[i], fourWrites[i])
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
	h := Hello{Engine: "2d", Token: 0xfeed, Caps: CapTenant}
	for _, payload := range [][]byte{EncodeHello(h), helloWithBatchSlot(h, 128)} {
		got, err := DecodeHello(payload)
		if err != nil || got != h {
			t.Fatalf("hello v3 round trip: %+v -> %+v (%v)", h, got, err)
		}
	}
	// The trailing auth credential rides after RouteKey and round-trips;
	// a hello without it decodes with Auth empty (older senders).
	ha := Hello{Engine: "2d", Caps: CapTenant, RouteKey: 9, Auth: "acme:s3cret"}
	gotA, err := DecodeHello(EncodeHello(ha))
	if err != nil || gotA != ha {
		t.Fatalf("hello v3 auth round trip: %+v -> %+v (%v)", ha, gotA, err)
	}
	// A pre-Auth payload (ends after the route key) and a pre-RouteKey
	// payload (ends after the caps) still decode: both trailing fields
	// are optional. Route key 9 and an empty credential are one byte
	// each on the wire.
	full := EncodeHello(Hello{Engine: "2d", Caps: CapTenant, RouteKey: 9})
	gotOld, err := DecodeHello(full[:len(full)-1])
	if err != nil || gotOld.Auth != "" || gotOld.RouteKey != 9 {
		t.Fatalf("pre-auth hello: %+v (%v)", gotOld, err)
	}
	gotOlder, err := DecodeHello(full[:len(full)-2])
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
	scheme, _ := blockSplit(tb, payload)
	return scheme
}

// blockSplit returns the scheme byte and the body of an encoded block.
func blockSplit(tb testing.TB, payload []byte) (byte, []byte) {
	tb.Helper()
	for range 3 { // seq, count, rawLen
		_, k := binary.Uvarint(payload)
		if k <= 0 {
			tb.Fatal("truncated block header")
		}
		payload = payload[k:]
	}
	return payload[0], payload[1:]
}

// TestBlockRandomAddressShipsHuffman: a random-address fork-join block
// has little for the copy layer to find, yet its field-split Huffman
// body must still beat the record form, and beat 1.834 B/event (what
// DEFLATE over the single-cursor delta tokens reached on this class).
func TestBlockRandomAddressShipsHuffman(t *testing.T) {
	events := forkJoinEvents(t, 1, 4096, 4096, workload.Mix{Locs: 128, ReadFrac: 0.8, Block: 2})
	var enc BlockEncoder
	var dec BlockDecoder
	payload := roundTripBlock(t, &enc, &dec, 1, events)
	if s := blockScheme(t, payload); s != blockHuffman {
		t.Fatalf("scheme %d, want %d (huffman)", s, blockHuffman)
	}
	if bpe := float64(len(payload)) / float64(len(events)); bpe > 1.834 {
		t.Fatalf("%.3f B/event, want <= 1.834", bpe)
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
