package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/fj"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader and, when a
// frame parses, checks the invariants the server relies on: the payload
// round-trips through AppendFrame to the same bytes, and an
// EventsBlock, Hello or Welcome payload that decodes re-encodes and
// re-decodes stably.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, FrameFinish, nil))
	f.Add(AppendFrame(nil, FrameEventsBlock, sampleBlock(1)))
	f.Add(AppendFrame(nil, FrameHello, EncodeHelloV3(Hello{Engine: "2d", BatchSize: 64})))
	f.Add([]byte{byte(FrameEventsBlock), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	// Resume vocabulary: sequenced blocks, resume handshake, acks,
	// heartbeats.
	f.Add(AppendFrame(nil, FrameEventsBlock, sampleBlock(3)))
	f.Add(AppendFrame(nil, FrameHello, EncodeHelloV3(Hello{
		Engine: "2d", BatchSize: 64, Token: 0xabcdef,
		Caps: CapTenant, RouteKey: 1 << 33, Auth: "acme:s3cret",
	})))
	f.Add(AppendFrame(nil, FrameWelcome, EncodeWelcomeV3(Welcome{Session: 9, Token: 1 << 50, NextSeq: 17})))
	f.Add(AppendFrame(nil, FrameAck, EncodeAck(1<<20)))
	f.Add(AppendFrame(nil, FrameHeartbeat, nil))
	// Capability handshakes and a hostile block.
	f.Add(AppendFrame(nil, FrameHello, EncodeHelloV3(Hello{Engine: "2d", BatchSize: 64, Token: 7, Caps: CapTenant})))
	f.Add(AppendFrame(nil, FrameWelcome, EncodeWelcomeV3(Welcome{Session: 2, Token: 0xbeef, NextSeq: 1, Caps: CapTenant})))
	f.Add(AppendFrame(nil, FrameEventsBlock, hostileBlock))

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // malformed input must only error, never panic
		}
		// A parsed frame must re-encode to a prefix of the input.
		again := AppendFrame(nil, ft, payload)
		if len(again) > len(data) || !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("re-encoded frame is not a prefix of the input")
		}
		switch ft {
		case FrameHello:
			checkHelloRoundTrip(t, payload)
		case FrameWelcome:
			checkWelcomeRoundTrip(t, payload)
		case FrameEventsBlock:
			checkBlockRoundTrip(t, payload)
		}
	})
}

// FuzzResume feeds arbitrary bytes to every resume-protocol decoder —
// the handshake/sequence/ack/token vocabulary a hostile or corrupted
// peer controls — and checks the decoders only ever error, never
// panic, and that anything they accept round-trips stably through the
// encoders.
func FuzzResume(f *testing.F) {
	f.Add(EncodeHelloV3(Hello{Engine: "2d", BatchSize: 64, Token: 42, Caps: CapTenant, RouteKey: 5, Auth: "t:k"}))
	f.Add(EncodeWelcomeV3(Welcome{Session: 1, Token: 0xdead, NextSeq: 2, Caps: CapTenant}))
	f.Add(EncodeAck(7))
	f.Add(sampleBlock(5))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkHelloRoundTrip(t, data)
		checkWelcomeRoundTrip(t, data)
		if seq, err := DecodeAck(data); err == nil {
			if got, err := DecodeAck(EncodeAck(seq)); err != nil || got != seq {
				t.Fatalf("ack round trip: %d -> %d (%v)", seq, got, err)
			}
		}
		checkBlockRoundTrip(t, data)
	})
}

// FuzzReplFrames feeds arbitrary bytes to the four replication-frame
// decoders — the payloads a hostile or corrupted replication peer
// controls — and checks they only ever error, never panic, and that
// every value they accept re-encodes to a payload that decodes to the
// same value.
func FuzzReplFrames(f *testing.F) {
	var chain [ChainHashSize]byte
	for i := range chain {
		chain[i] = byte(i + 1)
	}
	f.Add(EncodeReplHello(ReplHello{SourceID: "primary-1", Key: "rk"}))
	f.Add(EncodeReplHello(ReplHello{}))
	f.Add(append(EncodeReplHello(ReplHello{SourceID: "s"}), 0xFF, 0x01)) // trailing bytes
	f.Add(binary.AppendUvarint(nil, MaxReplIDLen+1))                     // oversized field
	f.Add(EncodeReplWelcome(ReplWelcome{Next: 1 << 40, Chain: chain}))
	f.Add(EncodeReplRecord(nil, ReplRecord{Index: 3, Framed: []byte{0, 0, 0, 4, 'b', 'o', 'd', 'y'}}))
	f.Add(EncodeReplAck(17))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00}) // overlong zero
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeReplHello(data); err == nil {
			if got, err := DecodeReplHello(EncodeReplHello(h)); err != nil || got != h {
				t.Fatalf("repl-hello round trip: %+v -> %+v (%v)", h, got, err)
			}
		}
		if w, err := DecodeReplWelcome(data); err == nil {
			if got, err := DecodeReplWelcome(EncodeReplWelcome(w)); err != nil || got != w {
				t.Fatalf("repl-welcome round trip: %+v -> %+v (%v)", w, got, err)
			}
		}
		if r, err := DecodeReplRecord(data); err == nil {
			got, err := DecodeReplRecord(EncodeReplRecord(nil, r))
			if err != nil || got.Index != r.Index || !bytes.Equal(got.Framed, r.Framed) {
				t.Fatalf("repl-record round trip: %d/%x -> %d/%x (%v)", r.Index, r.Framed, got.Index, got.Framed, err)
			}
		}
		if next, err := DecodeReplAck(data); err == nil {
			if got, err := DecodeReplAck(EncodeReplAck(next)); err != nil || got != next {
				t.Fatalf("repl-ack round trip: %d -> %d (%v)", next, got, err)
			}
		}
	})
}

// checkHelloRoundTrip: a Hello payload the decoder accepts must
// re-encode to one that decodes to the same Hello.
func checkHelloRoundTrip(t *testing.T, payload []byte) {
	t.Helper()
	if h, err := DecodeHelloV3(payload); err == nil {
		if got, err := DecodeHelloV3(EncodeHelloV3(h)); err != nil || got != h {
			t.Fatalf("hello round trip: %+v -> %+v (%v)", h, got, err)
		}
	}
}

// checkWelcomeRoundTrip is checkHelloRoundTrip for Welcome payloads.
func checkWelcomeRoundTrip(t *testing.T, payload []byte) {
	t.Helper()
	if w, err := DecodeWelcomeV3(payload); err == nil {
		if got, err := DecodeWelcomeV3(EncodeWelcomeV3(w)); err != nil || got != w {
			t.Fatalf("welcome round trip: %+v -> %+v (%v)", w, got, err)
		}
	}
}

// FuzzDecodeBlock feeds arbitrary bytes to the block decompressor — the
// payload a hostile or corrupted peer controls — and checks it only
// ever errors, never panics, and that anything it accepts passes
// checkBlockRoundTrip.
func FuzzDecodeBlock(f *testing.F) {
	var enc BlockEncoder
	f.Add(enc.AppendBlock(nil, 1, nil))
	f.Add(enc.AppendBlock(nil, 2, sampleEvents()))
	repetitive := make([]fj.Event, 300)
	for i := range repetitive {
		repetitive[i] = fj.Event{Kind: fj.EvRead + fj.EventKind(i%2), T: i % 3, Loc: fj.Addr(0x100 + i%7)}
	}
	f.Add(enc.AppendBlock(nil, 3, repetitive))
	f.Add([]byte{})
	// Blocks of the retired schemes 1 (delta tokens) and 2 (flate over
	// the raw form), refused as unknown.
	f.Add([]byte{1, 1, 1, 1, 2, 200})
	f.Add([]byte{1, 1, 1, 2, 0xff})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Add(hostileBlock)
	// Four literal writes as the retired scheme 3 (a stored flate block
	// over the delta tokens), declaring their true 16-byte token length
	// and an implausible 89.
	for _, dl := range []byte{16, 89} {
		f.Add([]byte{7, 4, 12, 3, dl, 0x00, 0x10, 0x00, 0xef, 0xff,
			0, 5, 2, 4, 0, 5, 0, 2, 0, 5, 0, 2, 0, 5, 0, 2, 0x01, 0x00, 0x00, 0xff, 0xff})
	}
	// One seed per scheme 4 refusal.
	for _, c := range huffRefusals() {
		f.Add(c.block)
	}

	f.Fuzz(checkBlockRoundTrip)
}

// FuzzBlockEncode turns arbitrary bytes into an event batch (fuzzEvents)
// and requires the encoder's block to decode to exactly that batch. It
// reaches what decode-side fuzzing cannot: the cursor choice, the copy
// matcher and the code-length limiter on inputs the encoder accepts.
func FuzzBlockEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(fj.EvWrite), 1, 0x40, 0xF1, 200})
	f.Add([]byte{6 + byte(fj.EvFork), 3, 9, 24 + byte(fj.EvRead), 2, 0x7f, 0xF0, 255})
	seed := make([]byte, 0, 6*256)
	for i := range 256 {
		seed = append(seed, byte(i%240), byte(i), byte(i*7), byte(i*13), byte(i*29), byte(i*31))
	}
	f.Add(seed)
	rng := rand.New(rand.NewSource(3))
	for range 8 {
		data := make([]byte, rng.Intn(4096))
		rng.Read(data)
		f.Add(data)
	}

	var enc BlockEncoder
	var dec BlockDecoder
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzEvents(data)
		block := enc.AppendBlock(nil, 1, events)
		// The encoder picks its scheme by the body size the codes
		// predict; that must be the size it writes.
		if scheme, body := blockSplit(t, block); scheme == blockHuffman && len(body) != enc.bodyBytes() {
			t.Fatalf("scheme 4 body is %d bytes, predicted %d", len(body), enc.bodyBytes())
		}
		_, got, rawLen, err := dec.DecodeBlockInto(nil, block)
		if err != nil {
			t.Fatalf("encoder emitted a block its decoder refuses: %v", err)
		}
		if rawLen != fj.EventsSize(events) || len(got) != len(events) {
			t.Fatalf("raw %d, %d events; want raw %d, %d events", rawLen, len(got), fj.EventsSize(events), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d: %v, want %v", i, got[i], events[i])
			}
		}
	})
}

// fuzzEvents decodes a byte string into at most 1<<15 events. A byte
// b below 0xF0 starts an event of kind b%6, with f = b/6 choosing its
// shape: bit 0 moves the task id (the next byte) near or past
// maxBlockTask, bit 1 does the same for a fork/join's counterpart, and
// bits 2-3 move a read/write's address by a small step, a jump of at
// least 2^13, back to one of eight region bases, or to eight raw
// bytes. A byte 0xF0+k repeats the last k+1 events 8 x (next byte)
// times, the long runs the copy layer exists for.
func fuzzEvents(data []byte) []fj.Event {
	const maxEvents = 1 << 15
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var events []fj.Event
	var loc uint64
	var bases [8]uint64
	for len(data) > 0 && len(events) < maxEvents {
		b := next()
		if b >= 0xF0 {
			k, r := int(b&0xF)+1, 8*int(next())
			if k > len(events) {
				continue
			}
			run := append([]fj.Event(nil), events[len(events)-k:]...)
			for range r {
				if len(events)+k > maxEvents {
					break
				}
				events = append(events, run...)
			}
			continue
		}
		f := b / 6
		ev := fj.Event{Kind: fj.EventKind(b % 6), T: int(next())}
		if f&1 != 0 {
			ev.T += maxBlockTask - 128
		}
		switch ev.Kind {
		case fj.EvFork, fj.EvJoin:
			ev.U = int(next())
			if f&2 != 0 {
				ev.U += maxBlockTask - 128
			}
		case fj.EvRead, fj.EvWrite:
			switch (f >> 2) & 3 {
			case 0:
				loc += uint64(int64(int8(next())))
			case 1:
				loc += uint64(next()) + 1<<13
			case 2:
				i := next() % 8
				bases[i] += uint64(next())
				loc = bases[i] << 20
			case 3:
				for range 8 {
					loc = loc<<8 | uint64(next())
				}
			}
			ev.Loc = fj.Addr(loc)
		}
		events = append(events, ev)
	}
	return events
}

// checkBlockRoundTrip: a block the decoder accepts carries a non-zero
// sequence and a raw length equal to its events' record-form size, and
// re-encodes to a block that decodes back to the same events (the codec
// is stable even if the accepted byte form differs from what our
// encoder emits).
func checkBlockRoundTrip(t *testing.T, payload []byte) {
	t.Helper()
	var dec BlockDecoder
	seq, events, rawLen, err := dec.DecodeBlockInto(nil, payload)
	if err != nil {
		return // malformed input must only error, never panic
	}
	if seq == 0 {
		t.Fatal("decoder accepted sequence 0")
	}
	if want := fj.EventsSize(events); rawLen != want {
		t.Fatalf("decoder accepted raw length %d for a %d-byte record form", rawLen, want)
	}
	again := new(BlockEncoder).AppendBlock(nil, seq, events)
	var dec2 BlockDecoder
	seq2, back, _, err := dec2.DecodeBlockInto(nil, again)
	if err != nil {
		t.Fatalf("re-decode of re-encoded block failed: %v", err)
	}
	if seq2 != seq || len(back) != len(events) {
		t.Fatalf("block round trip: seq %d/%d, %d/%d events", seq, seq2, len(events), len(back))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d: %v != %v", i, back[i], events[i])
		}
	}
}
