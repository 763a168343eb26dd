package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/fj"
)

// Block codec for FrameEventsBlock.
//
// A block payload is:
//
//	uvarint  seq      batch sequence number (>= 1)
//	uvarint  count    number of events in the block
//	uvarint  rawLen   size of the batch in the raw record form (fj.AppendEvents)
//	1 byte   scheme   0 raw, 1 delta, 2 flate, 3 delta+flate
//	N bytes  body     scheme-dependent
//
// Scheme 1 (delta) is the trace-aware path. Each event is reduced to a
// tuple (kind, dT, dX): dT is the signed delta of the acting task id
// against the previous event's, and dX the wraparound delta of the
// counterpart task (fork/join) or address (read/write) against the
// previous value of that same field. Fork-join traces walk tasks and
// addresses in tight, regular strides, so the tuples are tiny and —
// crucially — repetitive. A second layer exploits that: the body is a
// token stream where tag 0 introduces a literal tuple (kind byte +
// zigzag varints) and tag n >= 1 copies n tuples from lag p (uvarint),
// LZ77-style with overlapping copies allowed, so `repeat N {read x;
// write y}` collapses to one literal pair plus one copy token. A block
// is fully self-contained — delta state resets at the block boundary —
// so a block resent to a freshly restarted server decodes identically,
// preserving the resume guarantee.
//
// Scheme 3 runs DEFLATE over the delta token stream, with the inflated
// token-stream length framed first (uvarint) so the decoder can bound
// its read. The two layers compose: the delta pass turns a trace's
// strides into a tiny, low-entropy alphabet that Huffman coding then
// squeezes, even on random-address traces whose delta stream is a
// little longer than the raw form. The encoder ships the delta stream
// bare when it already cuts the batch 8x; otherwise it ships the
// smallest of delta+flate, delta and raw (scheme 0, the record form
// unchanged). Scheme 2, DEFLATE over the raw form, is no longer
// emitted; the decoder still accepts it from older senders.
//
// Blocks are sized for the flate pass: its per-block cost is Huffman
// table setup on both ends, so the client cuts 4096-event blocks
// (client.DefaultFrameEvents) — 8x fewer setups than 512-event blocks,
// and longer runs for the copy layer.
//
// The decoder trusts neither count nor rawLen: every record is at least
// two bytes, so count may not exceed rawLen/2, a scheme 3 stream may
// not declare more than maxTokenBytes per event, and every scheme must
// decode to events whose record form is exactly rawLen bytes. A block
// cannot claim more events, or more saved bandwidth, than it carries.

// Block schemes.
const (
	blockRaw        = 0
	blockDelta      = 1
	blockFlate      = 2
	blockDeltaFlate = 3
)

// maxCopyLag bounds how far back a copy token may reach, which in turn
// bounds the decoder's window to a small fixed ring.
const maxCopyLag = 255

const ringSize = 256 // power of two > maxCopyLag

// maxTokenBytes is the longest token of the delta stream: a literal is
// tag 0, the kind byte and two varints of at most 10 bytes each. A copy
// token (two uvarints, the lag at most 2 bytes) is shorter.
const maxTokenBytes = 1 + 1 + 2*binary.MaxVarintLen64

// maxBlockTask bounds decoded task ids, rejecting hostile blocks whose
// deltas walk outside any plausible id space (ids are dense from 0).
const maxBlockTask = 1 << 40

// tuple is one event in delta form.
type tuple struct {
	kind fj.EventKind
	dT   int64
	dX   uint64
}

const htabSize = 2048 // power of two

// BlockEncoder compresses event batches into FrameEventsBlock payloads.
// Not safe for concurrent use; a sender serializes AppendBlock calls
// (the client holds its write lock). The zero value is ready to use.
type BlockEncoder struct {
	tuples []tuple
	delta  []byte
	htab   [htabSize]int32 // position+1 of the last tuple hashing there
	fw     *flate.Writer
	fbuf   bytes.Buffer

	// Cumulative accounting across AppendBlock calls, for obs.Stats.
	Blocks    uint64 // blocks encoded
	RawBytes  uint64 // total raw record-form bytes in
	WireBytes uint64 // total block payload bytes out
}

// AppendBlock appends a FrameEventsBlock payload (seq + compressed
// block) to dst and returns the extended slice.
func (e *BlockEncoder) AppendBlock(dst []byte, seq uint64, events []fj.Event) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(events)))

	rawLen := fj.EventsSize(events)
	dst = binary.AppendUvarint(dst, uint64(rawLen))

	// The delta stream is built first (a batch with task ids the delta
	// decoder refuses ships raw); the raw record form is only
	// materialized when it ships. A delta stream that already cut the
	// batch 8x is left alone — past that point flate's
	// single-digit-percent shavings are not worth a second full pass on
	// the sender's critical path. Otherwise flate runs over the delta
	// stream even when that stream is longer than the raw form: the
	// delta pass turns strides into a low-entropy alphabet, so flate
	// over deltas beats flate over raw records even on random-address
	// traces.
	delta, ok := e.encodeDelta(events)
	scheme := byte(blockRaw)
	if ok && len(delta) < rawLen {
		scheme = blockDelta
	}
	var fb []byte
	// The decoder bounds a flated stream's declared length by
	// MaxFrameSize, which only a batch near that size in raw form can
	// exceed.
	if ok && len(delta)*8 >= rawLen && len(delta) <= MaxFrameSize {
		f := e.deflate(delta)
		if len(f)+uvarintLen(uint64(len(delta))) < min(len(delta), rawLen) {
			scheme, fb = blockDeltaFlate, f
		}
	}
	dst = append(dst, scheme)
	switch scheme {
	case blockDeltaFlate:
		dst = binary.AppendUvarint(dst, uint64(len(delta)))
		dst = append(dst, fb...)
	case blockDelta:
		dst = append(dst, delta...)
	default:
		dst = fj.AppendEvents(dst, events)
	}

	e.Blocks++
	e.RawBytes += uint64(rawLen)
	e.WireBytes += uint64(len(dst) - start)
	return dst
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

// encodeDelta renders events as the delta+copy-run token stream,
// reusing the encoder's scratch buffers. It reports false, with no
// stream, when a task id falls outside [0, maxBlockTask]: the delta
// decoder refuses those, and only the raw form carries them.
func (e *BlockEncoder) encodeDelta(events []fj.Event) ([]byte, bool) {
	tl := e.tuples[:0]
	var prevT int64
	var prevU, prevLoc uint64
	for _, ev := range events {
		if uint64(ev.T) > maxBlockTask {
			return nil, false
		}
		t := tuple{kind: ev.Kind, dT: int64(ev.T) - prevT}
		prevT = int64(ev.T)
		switch ev.Kind {
		case fj.EvFork, fj.EvJoin:
			if uint64(ev.U) > maxBlockTask {
				return nil, false
			}
			t.dX = uint64(ev.U) - prevU
			prevU = uint64(ev.U)
		case fj.EvRead, fj.EvWrite:
			t.dX = uint64(ev.Loc) - prevLoc
			prevLoc = uint64(ev.Loc)
		}
		tl = append(tl, t)
	}
	e.tuples = tl

	for i := range e.htab {
		e.htab[i] = 0
	}
	buf := e.delta[:0]
	lastLag := 0
	for i := 0; i < len(tl); {
		// Greedy longest match over a few cheap candidate lags: the lag
		// that matched last (periodic traces reuse it forever), the
		// short strides regular interleavings produce, and the last
		// position that hashed like tl[i].
		best, bestLag := 1, 0
		try := func(p int) {
			if p <= 0 || p > i || p > maxCopyLag || tl[i] != tl[i-p] {
				return
			}
			l := 1
			for i+l < len(tl) && tl[i+l] == tl[i+l-p] {
				l++
			}
			if l > best {
				best, bestLag = l, p
			}
		}
		// A long match on the periodic lag is already near-optimal; only
		// price the other candidates while the best run is still short.
		try(lastLag)
		if best < 32 {
			try(1)
			try(2)
			try(3)
			try(4)
			if j := int(e.htab[hashTuple(tl[i])]) - 1; j >= 0 {
				try(i - j)
			}
		}
		if bestLag > 0 && best >= 2 {
			buf = binary.AppendUvarint(buf, uint64(best))
			buf = binary.AppendUvarint(buf, uint64(bestLag))
			// Interior positions are hashed too: the cost is a few ns per
			// tuple, and the richer table keeps the delta stream small
			// enough that the flate pass below can usually be skipped —
			// a large net win on the sender's critical path.
			for j := range best {
				e.htab[hashTuple(tl[i+j])] = int32(i+j) + 1
			}
			lastLag = bestLag
			i += best
		} else {
			t := tl[i]
			buf = append(buf, 0, byte(t.kind))
			buf = binary.AppendVarint(buf, t.dT)
			switch t.kind {
			case fj.EvFork, fj.EvJoin, fj.EvRead, fj.EvWrite:
				buf = binary.AppendVarint(buf, int64(t.dX))
			}
			e.htab[hashTuple(t)] = int32(i) + 1
			i++
		}
	}
	e.delta = buf
	return buf, true
}

// deflate compresses raw with a reusable flate writer, returning the
// compressed bytes (valid until the next call).
func (e *BlockEncoder) deflate(raw []byte) []byte {
	e.fbuf.Reset()
	if e.fw == nil {
		e.fw, _ = flate.NewWriter(&e.fbuf, flate.BestSpeed)
	} else {
		e.fw.Reset(&e.fbuf)
	}
	if _, err := e.fw.Write(raw); err != nil {
		return raw
	}
	if err := e.fw.Close(); err != nil {
		return raw
	}
	return e.fbuf.Bytes()
}

func hashTuple(t tuple) uint32 {
	h := uint64(t.kind) * 0x9E3779B97F4A7C15
	h ^= uint64(t.dT) * 0xC2B2AE3D27D4EB4F
	h ^= t.dX * 0x165667B19E3779F9
	h ^= h >> 29
	return uint32(h) & (htabSize - 1)
}

// BlockDecoder decompresses FrameEventsBlock payloads. Not safe for
// concurrent use; a receiver keeps one per connection. The zero value
// is ready to use.
type BlockDecoder struct {
	ring [ringSize]tuple
	raw  []byte
	fr   io.ReadCloser
	frsr *bytes.Reader
}

// DecodeBlockInto parses a FrameEventsBlock payload, appending the
// decoded events to dst without per-event allocation (dst grows like
// any append target). It returns the block's sequence number, the
// extended slice, and the batch's raw record-form size (the bandwidth
// the block saved, for accounting). Hostile input yields an error,
// never a panic; truncation errors wrap ErrTruncated.
func (d *BlockDecoder) DecodeBlockInto(dst []fj.Event, payload []byte) (seq uint64, out []fj.Event, rawLen int, err error) {
	seq, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, dst, 0, fmt.Errorf("wire: block: sequence: %w", ErrTruncated)
	}
	if seq == 0 {
		return 0, dst, 0, errors.New("wire: block: zero sequence number")
	}
	payload = payload[k:]
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, dst, 0, fmt.Errorf("wire: block: count: %w", ErrTruncated)
	}
	if count > MaxFrameSize {
		return 0, dst, 0, fmt.Errorf("wire: block: implausible count %d", count)
	}
	payload = payload[k:]
	rl, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, dst, 0, fmt.Errorf("wire: block: raw length: %w", ErrTruncated)
	}
	if rl > MaxFrameSize {
		return 0, dst, 0, fmt.Errorf("wire: block: implausible raw length %d", rl)
	}
	if count > rl/2 {
		return 0, dst, 0, fmt.Errorf("wire: block: %d events cannot fit a raw length of %d", count, rl)
	}
	payload = payload[k:]
	if len(payload) == 0 {
		return 0, dst, 0, fmt.Errorf("wire: block: scheme: %w", ErrTruncated)
	}
	scheme, body := payload[0], payload[1:]

	switch scheme {
	case blockRaw:
		if uint64(len(body)) != rl {
			return 0, dst, 0, fmt.Errorf("wire: block: raw body is %d bytes, declared %d", len(body), rl)
		}
		dst, err = decodeRawBody(dst, body, int(count))
	case blockFlate:
		var raw []byte
		raw, err = d.inflate(body, int(rl))
		if err == nil {
			dst, err = decodeRawBody(dst, raw, int(count))
		}
	case blockDelta:
		dst, err = d.decodeDelta(dst, body, int(count), int(rl))
	case blockDeltaFlate:
		dl, k := binary.Uvarint(body)
		if k <= 0 {
			return 0, dst, 0, fmt.Errorf("wire: block: delta length: %w", ErrTruncated)
		}
		// No token is longer than a literal, and every token carries
		// at least one event, so a declared length past
		// maxTokenBytes*count is hostile. The bound caps the inflate
		// buffer before a single byte is inflated.
		if dl > maxTokenBytes*count || dl > MaxFrameSize {
			return 0, dst, 0, fmt.Errorf("wire: block: implausible delta length %d (%d events)", dl, count)
		}
		var stream []byte
		stream, err = d.inflate(body[k:], int(dl))
		if err == nil {
			dst, err = d.decodeDelta(dst, stream, int(count), int(rl))
		}
	default:
		err = fmt.Errorf("wire: block: unknown scheme %d", scheme)
	}
	if err != nil {
		return 0, dst, 0, err
	}
	return seq, dst, int(rl), nil
}

// decodeRawBody parses exactly count raw-form records spanning body.
// The records must be in canonical (shortest-varint) form, so that body
// is exactly the record form the events re-encode to.
func decodeRawBody(dst []fj.Event, body []byte, count int) ([]fj.Event, error) {
	start := len(dst)
	dst, rest, err := fj.DecodeEventsBytes(dst, body, count)
	if err != nil {
		return dst, fmt.Errorf("wire: block: %w", err)
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("wire: block: %d trailing bytes after %d events", len(rest), count)
	}
	if n := fj.EventsSize(dst[start:]); n != len(body) {
		return dst, fmt.Errorf("wire: block: %d-byte raw body re-encodes to %d bytes (non-canonical varints)", len(body), n)
	}
	return dst, nil
}

// inflate decompresses a flate body into the decoder's scratch buffer,
// requiring exactly rawLen bytes out.
func (d *BlockDecoder) inflate(body []byte, rawLen int) ([]byte, error) {
	if d.fr == nil {
		d.frsr = bytes.NewReader(body)
		d.fr = flate.NewReader(d.frsr)
	} else {
		d.frsr.Reset(body)
		if err := d.fr.(flate.Resetter).Reset(d.frsr, nil); err != nil {
			return nil, fmt.Errorf("wire: block: flate reset: %v", err)
		}
	}
	if cap(d.raw) < rawLen+1 {
		d.raw = make([]byte, rawLen+1)
	}
	buf := d.raw[:rawLen+1]
	n, err := io.ReadFull(d.fr, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("wire: block: flate: %v", err)
	}
	if n != rawLen {
		return nil, fmt.Errorf("wire: block: flate body inflated to %d bytes, declared %d", n, rawLen)
	}
	return buf[:rawLen], nil
}

// decodeDelta replays the delta+copy-run token stream, validating every
// decoded field so corrupt or hostile blocks error out instead of
// fabricating plausible events. The events' record-form size must come
// to exactly rawLen.
func (d *BlockDecoder) decodeDelta(dst []fj.Event, body []byte, count, rawLen int) ([]fj.Event, error) {
	var prevT int64
	var prevU, prevLoc uint64
	decoded, size := 0, 0
	apply := func(t tuple) error {
		if t.kind > fj.EvWrite {
			return fmt.Errorf("wire: block: event %d: unknown kind %d", decoded, t.kind)
		}
		T := prevT + t.dT
		if T < 0 || T > maxBlockTask {
			return fmt.Errorf("wire: block: event %d: task id %d out of range", decoded, T)
		}
		prevT = T
		ev := fj.Event{Kind: t.kind, T: int(T)}
		switch t.kind {
		case fj.EvFork, fj.EvJoin:
			u := prevU + t.dX
			if u > maxBlockTask {
				return fmt.Errorf("wire: block: event %d: task id %d out of range", decoded, u)
			}
			prevU = u
			ev.U = int(u)
		case fj.EvRead, fj.EvWrite:
			prevLoc += t.dX
			ev.Loc = fj.Addr(prevLoc)
		}
		if size += fj.EventSize(ev); size > rawLen {
			return fmt.Errorf("wire: block: event %d: record form exceeds declared raw length %d", decoded, rawLen)
		}
		d.ring[decoded&(ringSize-1)] = t
		dst = append(dst, ev)
		decoded++
		return nil
	}
	for decoded < count {
		tag, k := binary.Uvarint(body)
		if k <= 0 {
			return dst, fmt.Errorf("wire: block: event %d: token: %w", decoded, ErrTruncated)
		}
		body = body[k:]
		if tag == 0 {
			if len(body) == 0 {
				return dst, fmt.Errorf("wire: block: event %d: literal: %w", decoded, ErrTruncated)
			}
			t := tuple{kind: fj.EventKind(body[0])}
			body = body[1:]
			dT, k := binary.Varint(body)
			if k <= 0 {
				return dst, fmt.Errorf("wire: block: event %d: literal delta: %w", decoded, ErrTruncated)
			}
			body = body[k:]
			t.dT = dT
			switch t.kind {
			case fj.EvFork, fj.EvJoin, fj.EvRead, fj.EvWrite:
				dX, k := binary.Varint(body)
				if k <= 0 {
					return dst, fmt.Errorf("wire: block: event %d: literal delta: %w", decoded, ErrTruncated)
				}
				body = body[k:]
				t.dX = uint64(dX)
			}
			if err := apply(t); err != nil {
				return dst, err
			}
			continue
		}
		n := tag
		if n > uint64(count-decoded) {
			return dst, fmt.Errorf("wire: block: event %d: copy run of %d exceeds remaining %d", decoded, n, count-decoded)
		}
		lag, k := binary.Uvarint(body)
		if k <= 0 {
			return dst, fmt.Errorf("wire: block: event %d: copy lag: %w", decoded, ErrTruncated)
		}
		body = body[k:]
		if lag == 0 || lag > maxCopyLag || lag > uint64(decoded) {
			return dst, fmt.Errorf("wire: block: event %d: copy lag %d out of range", decoded, lag)
		}
		for range n {
			t := d.ring[(decoded-int(lag))&(ringSize-1)]
			if err := apply(t); err != nil {
				return dst, err
			}
		}
	}
	if len(body) != 0 {
		return dst, fmt.Errorf("wire: block: %d trailing bytes after %d events", len(body), count)
	}
	if size != rawLen {
		return dst, fmt.Errorf("wire: block: record form is %d bytes, declared %d", size, rawLen)
	}
	return dst, nil
}
