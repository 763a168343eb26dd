package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/fj"
)

// Block codec for FrameEventsBlock.
//
// A block payload is:
//
//	uvarint  seq      batch sequence number (>= 1)
//	uvarint  count    number of events in the block
//	uvarint  rawLen   size of the batch in the raw record form (fj.AppendEvents)
//	1 byte   scheme   0 raw, 4 huffman; any other scheme is refused
//	N bytes  body     scheme-dependent
//
// Scheme 4 is the trace-aware path. Each event is reduced to a tuple
// (kind, dT, slot, dX): dT is the signed delta of the acting task id
// against the previous event's. For fork/join, dX is the wraparound
// delta of the counterpart task against the previous fork/join's. For
// read/write, slot names one of four address cursors and dX is the
// wraparound delta of the address against that cursor, which then
// moves to the address. The encoder picks the nearest cursor when its
// zigzagged delta is below 2^13, else the least recently used one, so
// a trace that interleaves up to four address regions (a pipeline's
// stage state, item and buffers) keeps one cursor per region and
// repeats its tuples exactly. The decoder keeps no LRU state: it adds
// dX to the slot's cursor. A copy layer then turns the tuple sequence
// into tokens: a literal tuple, or a copy of n >= 2 tuples from lag
// 1..255, LZ77-style with overlapping copies allowed, so `repeat N
// {read x; write y}` collapses to one literal pair plus one copy token.
//
// The tokens are Huffman-coded field by field over five alphabets:
//
//	op   0-3 begin/fork/join/halt, 4-7 read by cursor 0-3, 8-11 write
//	     by cursor 0-3, 12-44 copy length buckets; 45-63 unassigned
//	lag  copy lag buckets
//	dT   zigzagged task delta buckets
//	dU   zigzagged fork/join counterpart delta buckets
//	dA   zigzagged address delta buckets
//
// A bucket is a value 0-15 itself, or a larger value's bit length
// followed by its low bits as raw extra bits (valueSymbol); copy
// lengths are coded as n-2 and lags as lag-1. Each alphabet gets a
// per-block canonical Huffman code of at most 12 bits per symbol, sent
// as a 7-bit used-prefix length and one 4-bit code length per symbol
// of that prefix. The body is one LSB-first bitstream: the five code
// headers, then per token its op symbol and, in order, the copy lag or
// the literal's dT and dU or dA, each symbol followed by its extra
// bits, padded with zero bits to a byte. The encoder ships scheme 4
// when its body is shorter than rawLen and raw (scheme 0, the record
// form unchanged) otherwise.
//
// A block is fully self-contained — cursors, codes and the copy window
// reset at the block boundary — so a block resent to a freshly
// restarted server decodes identically, preserving the resume
// guarantee.
//
// The decoder trusts neither count nor rawLen: every record is at least
// two bytes, so count may not exceed rawLen/2, and both schemes must
// decode to events whose record form is exactly rawLen bytes. A block
// cannot claim more events, or more saved bandwidth, than it carries.

// DefaultBlockEvents is how many events a sender packs per block unless
// configured otherwise (client.DefaultFrameEvents). Each block carries
// its own Huffman code headers and restarts the copy window, and
// 4096-event blocks amortise both (BenchmarkBlockCodec, EXPERIMENTS
// E17b and E17c). Receivers size their decode slabs to it, so a default
// block decodes into one slab without regrowth; they never size a slab
// from a block's declared count.
const DefaultBlockEvents = 4096

// Block schemes.
const (
	blockRaw     = 0
	blockHuffman = 4
)

// maxCopyLag bounds how far back a copy token may reach, which in turn
// bounds the decoder's window to a small fixed ring.
const maxCopyLag = 255

const ringSize = 256 // power of two > maxCopyLag

// maxBlockTask bounds decoded task ids, rejecting hostile blocks whose
// deltas walk outside any plausible id space (ids are dense from 0).
const maxBlockTask = 1 << 40

// Address cursors of scheme 4.
const (
	numCursors = 4
	nearCursor = 1 << 13 // a cursor this close (zigzagged) is reused
)

// The scheme 4 alphabets, in body order, and the op alphabet's layout.
const (
	alphOp = iota
	alphLag
	alphT
	alphU
	alphA
	numAlphabets

	opRead     = 4                      // + cursor
	opWrite    = opRead + numCursors    // + cursor
	opCopy     = opWrite + numCursors   // + bucket of n-2
	copyValues = literalValues + 21 - 4 // buckets for n-2 < 2^21 (count <= MaxFrameSize/2)
	opAssigned = opCopy + copyValues    // ops from here up are unassigned
	numOps     = 64
	lagValues  = literalValues + 8 - 4 // buckets for lag-1 < 2^8
)

// alphabetSize is each alphabet's symbol count.
var alphabetSize = [numAlphabets]int{numOps, lagValues, valueSymbols, valueSymbols, valueSymbols}

// maxCopyRun is the longest copy the op alphabet can express.
const maxCopyRun = 2 + 1<<21 - 1

// tuple is one event in delta form.
type tuple struct {
	kind fj.EventKind
	slot uint8 // address cursor of a read/write
	dT   int64
	dX   uint64
}

// token is one step of the copy layer: a literal of tuple at (n == 0)
// or a copy of n tuples from lag at.
type token struct {
	n, at uint32
}

const htabSize = 2048 // power of two

// BlockEncoder compresses event batches into FrameEventsBlock payloads.
// Not safe for concurrent use; a sender serializes AppendBlock calls
// (the client holds its write lock). The zero value is ready to use.
type BlockEncoder struct {
	tuples []tuple
	hashes []uint32 // hashTuple of each tuple
	tokens []token
	htab   [htabSize]int32 // position+1 of the last tuple hashing there
	codes  [numAlphabets]huffCode
	build  huffScratch

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

	// A batch with a task id the scheme 4 decoder refuses ships raw;
	// the raw record form carries any id. The body's size is known
	// from the codes before a bit of it is written.
	if e.tokenize(events) && e.bodyBytes() < rawLen {
		dst = append(dst, blockHuffman)
		dst = e.appendBody(dst)
	} else {
		dst = append(dst, blockRaw)
		dst = fj.AppendEvents(dst, events)
	}

	e.Blocks++
	e.RawBytes += uint64(rawLen)
	e.WireBytes += uint64(len(dst) - start)
	return dst
}

// tokenize renders events as tuples and copy-layer tokens, reusing the
// encoder's scratch buffers, and builds the block's five codes. It
// reports false when a task id falls outside [0, maxBlockTask] or a
// kind is unknown: the scheme 4 decoder refuses those.
func (e *BlockEncoder) tokenize(events []fj.Event) bool {
	if !e.buildTuples(events) {
		return false
	}
	for a := range e.codes {
		clear(e.codes[a].freq[:])
	}
	ops, lags := &e.codes[alphOp].freq, &e.codes[alphLag].freq
	clear(e.htab[:])
	tl, hs := e.tuples, e.hashes
	toks := e.tokens[:0]
	lastLag := 0
	for i := 0; i < len(tl); {
		// Greedy longest match over a few cheap candidate lags: the lag
		// that matched last (periodic traces reuse it forever), the
		// short strides regular interleavings produce, and the last
		// position that hashed like tl[i].
		best, bestLag := 1, 0
		try := func(p int) {
			if p <= 0 || p > i || p > maxCopyLag || hs[i] != hs[i-p] || tl[i] != tl[i-p] {
				return
			}
			l := 1
			for i+l < len(tl) && l < maxCopyRun && tl[i+l] == tl[i+l-p] {
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
			if j := int(e.htab[hs[i]&(htabSize-1)]) - 1; j >= 0 {
				try(i - j)
			}
		}
		if bestLag > 0 && best >= 2 {
			toks = append(toks, token{n: uint32(best), at: uint32(bestLag)})
			sym, _, _ := valueSymbol(uint64(best - 2))
			ops[opCopy+sym]++
			sym, _, _ = valueSymbol(uint64(bestLag - 1))
			lags[sym]++
			// Interior positions are hashed too: the cost is a few ns
			// per tuple, and the richer table finds longer copies.
			for j := range best {
				e.htab[hs[i+j]&(htabSize-1)] = int32(i+j) + 1
			}
			lastLag = bestLag
			i += best
		} else {
			t := tl[i]
			toks = append(toks, token{at: uint32(i)})
			ops[literalOp(t)]++
			sym, _, _ := valueSymbol(zigzag(t.dT))
			e.codes[alphT].freq[sym]++
			if a := xAlphabet(t.kind); a >= 0 {
				sym, _, _ := valueSymbol(zigzag(int64(t.dX)))
				e.codes[a].freq[sym]++
			}
			e.htab[hs[i]&(htabSize-1)] = int32(i) + 1
			i++
		}
	}
	e.tokens = toks
	for a := range e.codes {
		e.codes[a].build(alphabetSize[a], &e.build)
	}
	return true
}

// buildTuples reduces events to tuples in e.tuples, and their hashes
// in e.hashes, choosing each read/write's address cursor: the nearest
// one when its zigzagged delta is below nearCursor, else the least
// recently used one.
func (e *BlockEncoder) buildTuples(events []fj.Event) bool {
	if cap(e.tuples) < len(events) {
		e.tuples = make([]tuple, len(events))
		e.hashes = make([]uint32, len(events))
	}
	tl, hs := e.tuples[:len(events)], e.hashes[:len(events)]
	var prevT int64
	var prevU uint64
	var cursor [numCursors]uint64
	var lastUse [numCursors]int // 1 + index of the event that last moved each cursor
	for i, ev := range events {
		if uint64(ev.T) > maxBlockTask || ev.Kind > fj.EvWrite {
			return false
		}
		t := tuple{kind: ev.Kind, dT: int64(ev.T) - prevT}
		prevT = int64(ev.T)
		switch ev.Kind {
		case fj.EvFork, fj.EvJoin:
			if uint64(ev.U) > maxBlockTask {
				return false
			}
			t.dX = uint64(ev.U) - prevU
			prevU = uint64(ev.U)
		case fj.EvRead, fj.EvWrite:
			loc := uint64(ev.Loc)
			slot, near := 0, zigzag(int64(loc-cursor[0]))
			if z := zigzag(int64(loc - cursor[1])); z < near {
				slot, near = 1, z
			}
			if z := zigzag(int64(loc - cursor[2])); z < near {
				slot, near = 2, z
			}
			if z := zigzag(int64(loc - cursor[3])); z < near {
				slot, near = 3, z
			}
			if near >= nearCursor {
				slot = 0
				for s := 1; s < numCursors; s++ {
					if lastUse[s] < lastUse[slot] {
						slot = s
					}
				}
			}
			t.slot = uint8(slot)
			t.dX = loc - cursor[slot]
			cursor[slot] = loc
			lastUse[slot] = i + 1
		}
		tl[i] = t
		hs[i] = hashTuple(t)
	}
	e.tuples, e.hashes = tl, hs
	return true
}

// literalOp is the op symbol of a literal tuple.
func literalOp(t tuple) int {
	switch t.kind {
	case fj.EvRead:
		return opRead + int(t.slot)
	case fj.EvWrite:
		return opWrite + int(t.slot)
	}
	return int(t.kind)
}

// xAlphabet is the alphabet of a literal's dX for kind, or -1 for
// kinds without one.
func xAlphabet(kind fj.EventKind) int {
	switch kind {
	case fj.EvFork, fj.EvJoin:
		return alphU
	case fj.EvRead, fj.EvWrite:
		return alphA
	}
	return -1
}

// opExtraBits is the number of extra bits after op symbol sym.
func opExtraBits(sym int) uint {
	if sym < opCopy {
		return 0
	}
	return extraBits(sym - opCopy)
}

// bodyBytes is the size of the scheme 4 body appendBody would write.
func (e *BlockEncoder) bodyBytes() int {
	n := e.codes[alphOp].bodyBits(opExtraBits)
	for a := alphLag; a < numAlphabets; a++ {
		n += e.codes[a].bodyBits(extraBits)
	}
	return (n + 7) / 8
}

// appendBody appends the scheme 4 bitstream of the tokenized block.
func (e *BlockEncoder) appendBody(dst []byte) []byte {
	w := bitWriter{buf: dst}
	for a := range e.codes {
		e.codes[a].writeHeader(&w)
	}
	op, lag := &e.codes[alphOp], &e.codes[alphLag]
	for _, tk := range e.tokens {
		if tk.n > 0 {
			sym, nx, x := valueSymbol(uint64(tk.n - 2))
			op.put(&w, opCopy+sym)
			w.write(x, nx)
			sym, nx, x = valueSymbol(uint64(tk.at - 1))
			lag.put(&w, sym)
			w.write(x, nx)
			continue
		}
		t := e.tuples[tk.at]
		op.put(&w, literalOp(t))
		e.putValue(&w, alphT, zigzag(t.dT))
		if a := xAlphabet(t.kind); a >= 0 {
			e.putValue(&w, a, zigzag(int64(t.dX)))
		}
	}
	return w.flush()
}

// putValue writes v as alphabet a's bucket symbol and extra bits.
func (e *BlockEncoder) putValue(w *bitWriter, a int, v uint64) {
	sym, nx, x := valueSymbol(v)
	e.codes[a].put(w, sym)
	w.writeLong(x, nx)
}

func hashTuple(t tuple) uint32 {
	h := uint64(t.kind)*0x9E3779B97F4A7C15 ^ uint64(t.slot)*0xD6E8FEB86659FD93
	h ^= uint64(t.dT) * 0xC2B2AE3D27D4EB4F
	h ^= t.dX * 0x165667B19E3779F9
	h ^= h >> 29
	return uint32(h)
}

// BlockDecoder decompresses FrameEventsBlock payloads. Not safe for
// concurrent use; a receiver keeps one per connection. The zero value
// is ready to use.
type BlockDecoder struct {
	ring   [ringSize]tuple
	tables [numAlphabets]huffTable
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
	case blockHuffman:
		dst, err = d.decodeHuffman(dst, body, int(count), int(rl))
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
// is exactly the record form the events re-encode to. A negative task
// id (a varint of 2^63 or more) is refused, as scheme 4 refuses it: the
// detector indexes its state by task id, and no task has such an id.
// Ids past maxBlockTask still travel raw.
func decodeRawBody(dst []fj.Event, body []byte, count int) ([]fj.Event, error) {
	start := len(dst)
	dst, rest, err := fj.DecodeEventsBytes(dst, body, count)
	if err != nil {
		return dst, fmt.Errorf("wire: block: %w", err)
	}
	for i, ev := range dst[start:] {
		if ev.T < 0 {
			return dst, fmt.Errorf("wire: block: event %d: task id %d out of range", i, ev.T)
		}
		if (ev.Kind == fj.EvFork || ev.Kind == fj.EvJoin) && ev.U < 0 {
			return dst, fmt.Errorf("wire: block: event %d: task id %d out of range", i, ev.U)
		}
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("wire: block: %d trailing bytes after %d events", len(rest), count)
	}
	if n := fj.EventsSize(dst[start:]); n != len(body) {
		return dst, fmt.Errorf("wire: block: %d-byte raw body re-encodes to %d bytes (non-canonical varints)", len(body), n)
	}
	return dst, nil
}

// replay is the running state a delta token stream decodes against.
type replay struct {
	prevT   int64
	prevU   uint64
	cursor  [numCursors]uint64
	decoded int // events decoded so far
	size    int // their record-form size
	rawLen  int // declared record-form size
}

// errorf prefixes a decode error with the event it stopped at.
func (s *replay) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: block: event %d: "+format, append([]any{s.decoded}, args...)...)
}

// apply appends the event tuple t decodes to, validating every decoded
// field so corrupt or hostile blocks error out instead of fabricating
// plausible events, and records t in the copy window.
func (d *BlockDecoder) apply(s *replay, dst []fj.Event, t tuple) ([]fj.Event, error) {
	if t.kind > fj.EvWrite {
		return dst, s.errorf("unknown kind %d", t.kind)
	}
	T := s.prevT + t.dT
	if T < 0 || T > maxBlockTask {
		return dst, s.errorf("task id %d out of range", T)
	}
	s.prevT = T
	ev := fj.Event{Kind: t.kind, T: int(T)}
	switch t.kind {
	case fj.EvFork, fj.EvJoin:
		u := s.prevU + t.dX
		if u > maxBlockTask {
			return dst, s.errorf("task id %d out of range", u)
		}
		s.prevU = u
		ev.U = int(u)
	case fj.EvRead, fj.EvWrite:
		s.cursor[t.slot] += t.dX
		ev.Loc = fj.Addr(s.cursor[t.slot])
	}
	if s.size += fj.EventSize(ev); s.size > s.rawLen {
		return dst, s.errorf("record form exceeds declared raw length %d", s.rawLen)
	}
	d.ring[s.decoded&(ringSize-1)] = t
	s.decoded++
	return append(dst, ev), nil
}

// copyRun applies the n tuples lag back in the copy window, checking
// the run and the lag against what has been decoded.
func (d *BlockDecoder) copyRun(s *replay, dst []fj.Event, n, lag uint64, count int) ([]fj.Event, error) {
	if n > uint64(count-s.decoded) {
		return dst, s.errorf("copy run of %d exceeds remaining %d", n, count-s.decoded)
	}
	if lag == 0 || lag > maxCopyLag || lag > uint64(s.decoded) {
		return dst, s.errorf("copy lag %d out of range", lag)
	}
	var err error
	for range n {
		if dst, err = d.apply(s, dst, d.ring[(s.decoded-int(lag))&(ringSize-1)]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeHuffman replays a scheme 4 body. The events' record-form size
// must come to exactly rawLen.
func (d *BlockDecoder) decodeHuffman(dst []fj.Event, body []byte, count, rawLen int) ([]fj.Event, error) {
	r := bitReader{buf: body}
	for a := range d.tables {
		if err := d.tables[a].readCode(&r, alphabetSize[a]); err != nil {
			return dst, fmt.Errorf("wire: block: alphabet %d: %w", a, err)
		}
	}
	s := replay{rawLen: rawLen}
	// field decodes the next value of alphabet a.
	field := func(a int) (uint64, error) {
		sym, err := d.tables[a].sym(&r)
		if err != nil {
			return 0, err
		}
		return r.value(sym)
	}
	for s.decoded < count {
		op, err := d.tables[alphOp].sym(&r)
		if err != nil {
			return dst, s.errorf("op: %w", err)
		}
		if op >= opCopy {
			if op >= opAssigned {
				return dst, s.errorf("unknown op %d", op)
			}
			n, err := r.value(op - opCopy)
			if err != nil {
				return dst, s.errorf("copy run: %w", err)
			}
			lag, err := field(alphLag)
			if err != nil {
				return dst, s.errorf("copy lag: %w", err)
			}
			if dst, err = d.copyRun(&s, dst, n+2, lag+1, count); err != nil {
				return dst, err
			}
			continue
		}
		var t tuple
		switch {
		case op < opRead:
			t.kind = fj.EventKind(op)
		case op < opWrite:
			t.kind, t.slot = fj.EvRead, uint8(op-opRead)
		default:
			t.kind, t.slot = fj.EvWrite, uint8(op-opWrite)
		}
		dT, err := field(alphT)
		if err != nil {
			return dst, s.errorf("task delta: %w", err)
		}
		t.dT = unzigzag(dT)
		if a := xAlphabet(t.kind); a >= 0 {
			dX, err := field(a)
			if err != nil {
				return dst, s.errorf("delta: %w", err)
			}
			t.dX = uint64(unzigzag(dX))
		}
		if dst, err = d.apply(&s, dst, t); err != nil {
			return dst, err
		}
	}
	if err := r.end(); err != nil {
		return dst, fmt.Errorf("wire: block: %w", err)
	}
	if s.size != rawLen {
		return dst, fmt.Errorf("wire: block: record form is %d bytes, declared %d", s.size, rawLen)
	}
	return dst, nil
}
