package wire

import (
	"bytes"
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
	f.Add([]byte{1, 1, 1, blockDelta, 2, 200})
	f.Add([]byte{1, 1, 1, blockFlate, 0xff})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Add(hostileBlock)
	f.Add(deltaFlateBlock(uint64(len(literalStream))))
	f.Add(deltaFlateBlock(maxTokenBytes*uint64(len(literalEvents)) + 1))

	f.Fuzz(checkBlockRoundTrip)
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
