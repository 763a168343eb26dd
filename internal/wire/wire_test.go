package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/fj"
)

func sampleEvents() []fj.Event {
	return []fj.Event{
		{Kind: fj.EvBegin, T: 0},
		{Kind: fj.EvFork, T: 0, U: 1},
		{Kind: fj.EvBegin, T: 1},
		{Kind: fj.EvWrite, T: 1, Loc: 0xdeadbeef},
		{Kind: fj.EvHalt, T: 1},
		{Kind: fj.EvJoin, T: 0, U: 1},
		{Kind: fj.EvRead, T: 0, Loc: 7},
		{Kind: fj.EvHalt, T: 0},
	}
}

// sampleBlock is an EventsBlock payload carrying sampleEvents.
func sampleBlock(seq uint64) []byte {
	return new(BlockEncoder).AppendBlock(nil, seq, sampleEvents())
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameEventsBlock, sampleBlock(1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameFinish, nil); err != nil {
		t.Fatal(err)
	}

	if err := ReadMagic(&buf); err != nil {
		t.Fatal(err)
	}
	ft, got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameEventsBlock {
		t.Fatalf("frame type %v, want events-block", ft)
	}
	var dec BlockDecoder
	seq, events, _, err := dec.DecodeBlockInto(nil, got)
	if err != nil || seq != 1 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	want := sampleEvents()
	if len(events) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d: %v, want %v", i, events[i], want[i])
		}
	}
	if ft, payload, err := ReadFrame(&buf, nil); err != nil || ft != FrameFinish || len(payload) != 0 {
		t.Fatalf("finish frame: type=%v len=%d err=%v", ft, len(payload), err)
	}
}

func TestTruncatedFrameIsSentinel(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameEventsBlock, sampleBlock(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		_, _, err := ReadFrame(bytes.NewReader(data[:n]), nil)
		if err == nil {
			t.Fatalf("prefix %d/%d: read succeeded", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d/%d: %v does not wrap ErrTruncated", n, len(data), err)
		}
		// The fj sentinel spans both layers.
		if !errors.Is(err, fj.ErrTruncated) {
			t.Fatalf("prefix %d/%d: %v does not wrap fj.ErrTruncated", n, len(data), err)
		}
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameEventsBlock, sampleBlock(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupted := 0
	for i := range data {
		flip := append([]byte(nil), data...)
		flip[i] ^= 0x40
		_, _, err := ReadFrame(bytes.NewReader(flip), nil)
		if errors.Is(err, ErrChecksum) {
			corrupted++
		}
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
	if corrupted == 0 {
		t.Fatal("no flip ever reported ErrChecksum")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	hdr := []byte{byte(FrameEventsBlock), 0xFF, 0xFF, 0xFF, 0xFF}
	_, _, err := ReadFrame(bytes.NewReader(hdr), nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(bytes.NewBuffer(nil), FrameEventsBlock, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write err = %v, want ErrFrameTooLarge", err)
	}
}

func TestBadMagic(t *testing.T) {
	if err := ReadMagic(bytes.NewReader([]byte{'R', 'D', 'S', 99})); !errors.Is(err, ErrVersion) {
		t.Fatalf("version mismatch: %v", err)
	}
	if err := ReadMagic(bytes.NewReader([]byte("HTTP"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("wrong protocol: %v", err)
	}
	if err := ReadMagic(bytes.NewReader([]byte("RD"))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short magic: %v", err)
	}
}

// TestMagicVersionNegotiation pins ReadMagic as the one version
// decision: the current magic passes, every other "RDS" version byte —
// the retired 1 and 2 included — is ErrVersion, and a foreign protocol
// or a bare connect-and-close is told apart from both.
func TestMagicVersionNegotiation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(&buf); err != nil {
		t.Fatalf("current magic: %v", err)
	}
	for _, v := range []byte{0, 1, 2, Version + 1, 0xFF} {
		if err := ReadMagic(bytes.NewReader([]byte{'R', 'D', 'S', v})); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: %v, want ErrVersion", v, err)
		}
	}
	if err := ReadMagic(bytes.NewReader([]byte("GET "))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign protocol: %v", err)
	}
	if err := ReadMagic(bytes.NewReader(nil)); !errors.Is(err, ErrEmptyHandshake) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{},
		{Engine: "2d"},
		{Engine: "fasttrack", Token: 1<<63 + 5},
		{Engine: "vc", Token: 99, Caps: CapTenant, RouteKey: 1 << 40, Auth: "acme:k"},
	} {
		got, err := DecodeHello(EncodeHello(h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
		// An older client's non-zero batch-size slot decodes to the same
		// Hello: the slot is parsed and ignored.
		for _, batch := range []uint64{256, 32, 1 << 20} {
			got, err := DecodeHello(helloWithBatchSlot(h, batch))
			if err != nil || got != h {
				t.Fatalf("batch slot %d: %+v -> %+v (%v)", batch, h, got, err)
			}
		}
	}
	if _, err := DecodeHello([]byte{0xFF}); err == nil {
		t.Fatal("malformed hello accepted")
	}
	// The retired batch-size slot: the encoder always writes 0 there
	// (the bytes of an older client asking for per-event delivery), and
	// the decoder still refuses a slot beyond 1<<20 as malformed.
	h := Hello{Engine: "2d", Token: 7, Caps: CapTenant, RouteKey: 3, Auth: "t:k"}
	if got, want := EncodeHello(h), helloWithBatchSlot(h, 0); !bytes.Equal(got, want) {
		t.Fatalf("EncodeHello = % x, want % x (batch slot 0)", got, want)
	}
	if _, err := DecodeHello(helloWithBatchSlot(h, 1<<20+1)); !errors.Is(err, ErrTruncated) ||
		!strings.Contains(err.Error(), "batch size") {
		t.Fatalf("oversized batch slot: %v, want a malformed batch size", err)
	}
	// Token and caps are mandatory: a payload cut after the batch size
	// is truncated, not a fresh session with no capabilities.
	full := helloWithBatchSlot(Hello{Engine: "2d", Token: 3}, 8)
	for _, n := range []int{4, 5} {
		if _, err := DecodeHello(full[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("hello cut at %d bytes: %v, want ErrTruncated", n, err)
		}
	}
}

// helloWithBatchSlot is EncodeHello(h) with batch in the retired
// batch-size slot: the payload an older client sent when it asked the
// server for batched delivery.
func helloWithBatchSlot(h Hello, batch uint64) []byte {
	enc := EncodeHello(h)
	k := len(binary.AppendUvarint(nil, uint64(len(h.Engine)))) + len(h.Engine)
	out := binary.AppendUvarint(append([]byte(nil), enc[:k]...), batch)
	return append(out, enc[k+1:]...)
}

func TestWelcomeReportRoundTrip(t *testing.T) {
	want := Welcome{Session: 42, Token: 0xfeedface, NextSeq: 4097, Caps: CapTenant}
	w, err := DecodeWelcomeV3(EncodeWelcomeV3(want))
	if err != nil || w != want {
		t.Fatalf("welcome: %+v err=%v", w, err)
	}
	if _, err := DecodeWelcomeV3([]byte{1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated welcome: %v", err)
	}
	flags, body, err := DecodeReport(EncodeReport(FlagPartial, []byte(`{"x":1}`)))
	if err != nil || flags != FlagPartial || string(body) != `{"x":1}` {
		t.Fatalf("report: flags=%d body=%q err=%v", flags, body, err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	seq, err := DecodeAck(EncodeAck(1 << 40))
	if err != nil || seq != 1<<40 {
		t.Fatalf("ack: %d err=%v", seq, err)
	}
	if _, err := DecodeAck(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty ack: %v", err)
	}
}

func TestScratchReuse(t *testing.T) {
	var buf bytes.Buffer
	payload := sampleBlock(1)
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&buf, FrameEventsBlock, payload); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]byte, 0, 1024)
	for i := 0; i < 3; i++ {
		_, got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload) {
			t.Fatalf("payload %d bytes, want %d", len(got), len(payload))
		}
		scratch = got[:cap(got)]
	}
}
