package fj

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// TraceMagic identifies the binary trace format ("FJT" + version 1).
var TraceMagic = [4]byte{'F', 'J', 'T', 1}

// ErrTruncated reports that a binary trace (or event record stream)
// ended mid-record: the reader hit EOF before the encoding was
// complete. DecodeTrace, DecodeTraceInto and DecodeEventsBytes wrap it,
// so callers can distinguish a short read (errors.Is(err, ErrTruncated)
// — retry, or report a damaged file) from structural corruption (bad
// magic, unknown event kind), which is never retriable.
var ErrTruncated = errors.New("truncated event stream")

// wrapEOF converts the io short-read errors into the sentinel-checkable
// ErrTruncated, leaving every other error untouched.
func wrapEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}

// Encode writes the trace in a compact binary format: the magic header, a
// uvarint event count, then one record per event (kind byte + uvarint
// task id + kind-dependent payload). Traces recorded from one run can be
// replayed into any detector later or in another process.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(TraceMagic[:]); err != nil {
		return fmt.Errorf("fj: encode trace: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(t.Events)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return fmt.Errorf("fj: encode trace: %w", err)
	}
	// Chunked through AppendEvents so the on-disk record form and the
	// wire-frame record form are one encoder.
	scratch := make([]byte, 0, 4096)
	const chunk = 256
	for i := 0; i < len(t.Events); i += chunk {
		end := min(i+chunk, len(t.Events))
		scratch = AppendEvents(scratch[:0], t.Events[i:end])
		if _, err := bw.Write(scratch); err != nil {
			return fmt.Errorf("fj: encode trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fj: encode trace: %w", err)
	}
	return nil
}

// DecodeTrace reads a trace previously written by Encode.
func DecodeTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	if _, err := DecodeTraceInto(r, tr, 0); err != nil {
		return nil, err
	}
	return tr, nil
}

// DecodeTraceInto streams a trace written by Encode directly into sink
// in batches of batchSize events (DefaultBatchSize when <= 0), using
// sink's BatchSink path when implemented. Unlike DecodeTrace it never
// materializes the whole trace, so arbitrarily long recordings replay
// in constant memory. It returns the number of events delivered.
func DecodeTraceInto(r io.Reader, sink Sink, batchSize int) (int, error) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("fj: decode trace: %w", wrapEOF(err))
	}
	if magic != TraceMagic {
		return 0, fmt.Errorf("fj: decode trace: bad magic %v", magic)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("fj: decode trace: %w", wrapEOF(err))
	}
	const sanityCap = 1 << 28
	if count > sanityCap {
		return 0, fmt.Errorf("fj: decode trace: implausible event count %d", count)
	}
	if tr, ok := sink.(*Trace); ok {
		// Recording sink: presize so the whole decode is one allocation.
		// Every record is at least two bytes, so a reader that knows how
		// much input is left caps the presize: a lying header cannot
		// allocate for more events than the input holds.
		want := count
		if lr, ok := r.(interface{ Len() int }); ok {
			want = min(want, uint64(lr.Len()+br.Buffered())/2)
		}
		if uint64(cap(tr.Events)-len(tr.Events)) < want {
			grown := make([]Event, len(tr.Events), uint64(len(tr.Events))+want)
			copy(grown, tr.Events)
			tr.Events = grown
		}
	}
	if int(count) < batchSize {
		batchSize = int(count)
	}
	if batchSize == 0 {
		batchSize = 1
	}
	batch := make([]Event, 0, batchSize)
	delivered := 0
	for i := uint64(0); i < count; i++ {
		e, err := decodeEvent(br, i)
		if err != nil {
			return delivered, err
		}
		batch = append(batch, e)
		if len(batch) == cap(batch) {
			deliver(sink, batch)
			delivered += len(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		deliver(sink, batch)
		delivered += len(batch)
	}
	return delivered, nil
}

// decodeEvent reads one event record (kind byte + uvarint payload).
func decodeEvent(br *bufio.Reader, i uint64) (Event, error) {
	kb, err := br.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("fj: decode trace: event %d: %w", i, wrapEOF(err))
	}
	kind := EventKind(kb)
	if kind > EvWrite {
		return Event{}, fmt.Errorf("fj: decode trace: event %d: unknown kind %d", i, kb)
	}
	t, err := binary.ReadUvarint(br)
	if err != nil {
		return Event{}, fmt.Errorf("fj: decode trace: event %d: %w", i, wrapEOF(err))
	}
	e := Event{Kind: kind, T: int(t)}
	switch kind {
	case EvFork, EvJoin:
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return Event{}, fmt.Errorf("fj: decode trace: event %d: %w", i, wrapEOF(err))
		}
		e.U = int(u)
	case EvRead, EvWrite:
		loc, err := binary.ReadUvarint(br)
		if err != nil {
			return Event{}, fmt.Errorf("fj: decode trace: event %d: %w", i, wrapEOF(err))
		}
		e.Loc = Addr(loc)
	}
	return e, nil
}

// AppendEvents appends the Encode record form of events to dst (kind
// byte + uvarint task id + kind-dependent uvarint payload per event)
// and returns the extended slice. It is the shared encoder behind
// Trace.Encode and the wire protocol's event frames (internal/wire).
func AppendEvents(dst []byte, events []Event) []byte {
	for _, e := range events {
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(e.T))
		switch e.Kind {
		case EvFork, EvJoin:
			dst = binary.AppendUvarint(dst, uint64(e.U))
		case EvRead, EvWrite:
			dst = binary.AppendUvarint(dst, uint64(e.Loc))
		}
	}
	return dst
}

// EventsSize returns len(AppendEvents(nil, events)) without building
// the encoding — a size-only pass for callers (the wire block codec)
// that need the record-form length but may never ship the record form.
func EventsSize(events []Event) int {
	n := 0
	for _, e := range events {
		n += EventSize(e)
	}
	return n
}

// EventSize returns the record-form length of one event: a kind byte,
// the acting task id, and the counterpart task or address, if any.
func EventSize(e Event) int {
	n := 1 + uvarintSize(uint64(e.T))
	switch e.Kind {
	case EvFork, EvJoin:
		n += uvarintSize(uint64(e.U))
	case EvRead, EvWrite:
		n += uvarintSize(uint64(e.Loc))
	}
	return n
}

// uvarintSize is the byte length binary.AppendUvarint would emit for v.
func uvarintSize(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// DecodeEventsBytes parses count events in record form from buf,
// appending them to dst. It returns the extended slice and the
// unconsumed tail of buf. A buffer that ends mid-record yields an error
// wrapping ErrTruncated; an unknown event kind or a malformed varint is
// corruption and does not.
func DecodeEventsBytes(dst []Event, buf []byte, count int) ([]Event, []byte, error) {
	for i := 0; i < count; i++ {
		if len(buf) == 0 {
			return dst, buf, fmt.Errorf("fj: decode events: event %d: %w", i, ErrTruncated)
		}
		kind := EventKind(buf[0])
		if kind > EvWrite {
			return dst, buf, fmt.Errorf("fj: decode events: event %d: unknown kind %d", i, buf[0])
		}
		buf = buf[1:]
		t, n := binary.Uvarint(buf)
		if n <= 0 {
			return dst, buf, uvarintErr(i, n)
		}
		buf = buf[n:]
		e := Event{Kind: kind, T: int(t)}
		switch kind {
		case EvFork, EvJoin:
			u, n := binary.Uvarint(buf)
			if n <= 0 {
				return dst, buf, uvarintErr(i, n)
			}
			buf = buf[n:]
			e.U = int(u)
		case EvRead, EvWrite:
			loc, n := binary.Uvarint(buf)
			if n <= 0 {
				return dst, buf, uvarintErr(i, n)
			}
			buf = buf[n:]
			e.Loc = Addr(loc)
		}
		dst = append(dst, e)
	}
	return dst, buf, nil
}

// uvarintErr classifies a failed binary.Uvarint: n == 0 means the
// buffer ran out (truncation), n < 0 means a value overflowed 64 bits
// (corruption).
func uvarintErr(event, n int) error {
	if n == 0 {
		return fmt.Errorf("fj: decode events: event %d: %w", event, ErrTruncated)
	}
	return fmt.Errorf("fj: decode events: event %d: varint overflow", event)
}
