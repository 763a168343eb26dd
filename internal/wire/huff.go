package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Entropy stage of block scheme 4: per-block canonical Huffman codes
// over small alphabets, and the LSB-first bitstream that carries their
// symbols and the values' extra bits. block.go says what the alphabets
// are; this file knows nothing of events.

const (
	maxCodeLen    = 12              // longest code, in bits
	tableSize     = 1 << maxCodeLen // decode table entries per alphabet
	literalValues = 16              // values below this are their own symbol
	prefixBits    = 7               // width of an alphabet's used-prefix length
	lengthBits    = 4               // width of one code length

	// valueSymbols covers every uint64: the 16 literal values, then
	// one bucket per bit length 5..64.
	valueSymbols = literalValues + 64 - 4
)

// valueSymbol maps v to its symbol and the extra bits that follow it:
// values below 16 are their own symbol; a larger value of bit length L
// is bucket symbol L+11 followed by its low L-1 bits (the top bit is
// implied), as DEFLATE codes distances.
func valueSymbol(v uint64) (sym int, nextra uint, extra uint64) {
	if v < literalValues {
		return int(v), 0, 0
	}
	l := bits.Len64(v)
	return l + 11, uint(l - 1), v & (1<<(l-1) - 1)
}

// extraBits is the number of extra bits that follow value symbol sym.
func extraBits(sym int) uint {
	if sym < literalValues {
		return 0
	}
	return uint(sym - 12)
}

// zigzag folds a signed delta into an unsigned value, small magnitudes
// first; unzigzag inverts it.
func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// huffCode is one alphabet's per-block code on the encoding side: the
// symbol frequencies counted over the block, then the code lengths and
// bit-reversed canonical codes built from them.
type huffCode struct {
	freq [valueSymbols]uint32
	len  [valueSymbols]uint8
	code [valueSymbols]uint16
	used int // used prefix: 1 + the highest symbol with a code
}

// huffScratch is the working space of huffCode.build, kept in the
// encoder so building codes allocates nothing.
type huffScratch struct {
	sorted [valueSymbols]uint16     // used symbols by ascending frequency
	weight [2 * valueSymbols]uint32 // tree node weights: leaves, then internal nodes
	parent [2 * valueSymbols]uint16
	depth  [2 * valueSymbols]uint8
}

// build turns c.freq over the first size symbols into a canonical code
// no longer than maxCodeLen bits.
func (c *huffCode) build(size int, s *huffScratch) {
	m := 0
	c.used = 0
	for sym := range size {
		c.len[sym] = 0
		if c.freq[sym] == 0 {
			continue
		}
		// Insertion sort by (frequency, symbol): alphabets are small.
		j := m
		for j > 0 && c.freq[s.sorted[j-1]] > c.freq[sym] {
			s.sorted[j] = s.sorted[j-1]
			j--
		}
		s.sorted[j] = uint16(sym)
		m++
		c.used = sym + 1
	}
	var count [maxCodeLen + 1]int // symbols per code length
	switch m {
	case 0:
		return
	case 1:
		count[1] = 1
	default:
		// Two-queue Huffman: leaves in ascending weight, internal nodes
		// created in ascending weight, so the two lightest nodes are
		// always at the queue heads.
		for i := range m {
			s.weight[i] = c.freq[s.sorted[i]]
		}
		leaf, inner := 0, m
		take := func(next int) int {
			if leaf < m && (inner >= next || s.weight[leaf] <= s.weight[inner]) {
				leaf++
				return leaf - 1
			}
			inner++
			return inner - 1
		}
		for next := m; next < 2*m-1; next++ {
			a := take(next)
			b := take(next)
			s.weight[next] = s.weight[a] + s.weight[b]
			s.parent[a], s.parent[b] = uint16(next), uint16(next)
		}
		s.depth[2*m-2] = 0
		for i := 2*m - 3; i >= 0; i-- {
			s.depth[i] = s.depth[s.parent[i]] + 1
			if i < m {
				count[min(s.depth[i], maxCodeLen)]++
			}
		}
		// Clamping the overlong leaves to maxCodeLen overfills the
		// code space; each step below frees one unit of it by moving a
		// maxCodeLen leaf under a shorter leaf's place.
		total := 0
		for l := 1; l <= maxCodeLen; l++ {
			total += count[l] << (maxCodeLen - l)
		}
		for total > tableSize {
			count[maxCodeLen]--
			for l := maxCodeLen - 1; l > 0; l-- {
				if count[l] > 0 {
					count[l]--
					count[l+1] += 2
					break
				}
			}
			total--
		}
	}
	// The rarest symbols take the longest codes.
	i := 0
	for l := maxCodeLen; l > 0; l-- {
		for range count[l] {
			c.len[s.sorted[i]] = uint8(l)
			i++
		}
	}
	var next [maxCodeLen + 1]uint16
	canonicalStarts(&count, &next)
	for sym := range c.used {
		if l := c.len[sym]; l > 0 {
			c.code[sym] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// canonicalStarts sets next[l] to the first canonical code of length l
// given count[l] codes of each length.
func canonicalStarts(count *[maxCodeLen + 1]int, next *[maxCodeLen + 1]uint16) {
	code := 0
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = uint16(code)
	}
}

// bodyBits is the bitstream cost of the coded symbols, extra bits
// included, plus the code's header; extra gives each symbol's extra
// bit count.
func (c *huffCode) bodyBits(extra func(int) uint) int {
	n := prefixBits + lengthBits*c.used
	for sym := range c.used {
		if f := c.freq[sym]; f > 0 {
			n += int(f) * (int(c.len[sym]) + int(extra(sym)))
		}
	}
	return n
}

// writeHeader sends the code as its used-prefix length and one
// lengthBits code length per symbol of that prefix.
func (c *huffCode) writeHeader(w *bitWriter) {
	w.write(uint64(c.used), prefixBits)
	for sym := range c.used {
		w.write(uint64(c.len[sym]), lengthBits)
	}
}

// put writes symbol sym's code.
func (c *huffCode) put(w *bitWriter, sym int) {
	w.write(uint64(c.code[sym]), uint(c.len[sym]))
}

// bitWriter packs bits LSB-first onto a byte slice.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

// write appends the low n bits of v (n <= 32, v < 1<<n).
func (w *bitWriter) write(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	if w.n >= 32 {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.acc))
		w.acc >>= 32
		w.n -= 32
	}
}

// writeLong is write for n up to 64.
func (w *bitWriter) writeLong(v uint64, n uint) {
	if n > 32 {
		w.write(v&(1<<32-1), 32)
		v, n = v>>32, n-32
	}
	w.write(v, n)
}

// flush pads the last byte with zero bits and returns the stream.
func (w *bitWriter) flush() []byte {
	for w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.n -= min(w.n, 8)
	}
	return w.buf
}

// errNoCode is a bit pattern that matches no code of its alphabet.
var errNoCode = errors.New("bit pattern matches no code")

// bitReader reads an LSB-first bitstream. Bits past the end read as
// zero, but a read that needs them fails with ErrTruncated.
type bitReader struct {
	buf []byte
	pos int    // next byte of buf to load
	acc uint64 // bits loaded, not yet consumed, low bit first
	n   uint   // valid bits in acc
}

// refill loads whole bytes until acc holds at least 56 bits or buf is
// exhausted. The 8-byte load may leave bits of the next unloaded byte
// above n; the next refill ORs those same bits in again.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.LittleEndian.Uint64(r.buf[r.pos:]) << r.n
		r.pos += int(63-r.n) >> 3
		r.n |= 56
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
}

// read consumes n bits (n <= 32).
func (r *bitReader) read(n uint) (uint64, error) {
	if r.n < n {
		r.refill()
		if r.n < n {
			return 0, fmt.Errorf("bitstream: %w", ErrTruncated)
		}
	}
	v := r.acc & (1<<n - 1)
	r.acc >>= n
	r.n -= n
	return v, nil
}

// readLong is read for n up to 64.
func (r *bitReader) readLong(n uint) (uint64, error) {
	if n <= 32 {
		return r.read(n)
	}
	lo, err := r.read(32)
	if err != nil {
		return 0, err
	}
	hi, err := r.read(n - 32)
	return lo | hi<<32, err
}

// value decodes value symbol sym and its extra bits.
func (r *bitReader) value(sym int) (uint64, error) {
	if sym < literalValues {
		return uint64(sym), nil
	}
	nx := extraBits(sym)
	x, err := r.readLong(nx)
	return 1<<nx | x, err
}

// end checks the stream was consumed to its last byte and that the
// padding bits of that byte are zero.
func (r *bitReader) end() error {
	consumed := r.pos*8 - int(r.n)
	if rest := len(r.buf) - (consumed+7)/8; rest != 0 {
		return fmt.Errorf("%d trailing bytes after the bitstream", rest)
	}
	if tail := consumed % 8; tail != 0 && r.buf[len(r.buf)-1]>>tail != 0 {
		return errors.New("non-zero bitstream padding")
	}
	return nil
}

// huffTable decodes one alphabet: entry i, for the low bits i of the
// stream, is symbol<<4 | code length, or 0 where no code matches.
type huffTable struct {
	entry [tableSize]uint16
	bits  uint // table index width: the longest code length
}

// readCode reads one alphabet's code header (see huffCode.writeHeader)
// for an alphabet of size symbols and builds its decode table.
func (t *huffTable) readCode(r *bitReader, size int) error {
	used, err := r.read(prefixBits)
	if err != nil {
		return err
	}
	if used > uint64(size) {
		return fmt.Errorf("code prefix of %d symbols exceeds the %d-symbol alphabet", used, size)
	}
	var lens [valueSymbols]uint8
	var count [maxCodeLen + 1]int
	kraft, longest := 0, 0
	for sym := range int(used) {
		l, err := r.read(lengthBits)
		if err != nil {
			return err
		}
		if l > maxCodeLen {
			return fmt.Errorf("code length %d exceeds %d", l, maxCodeLen)
		}
		if l > 0 {
			lens[sym] = uint8(l)
			count[l]++
			kraft += tableSize >> l
			longest = max(longest, int(l))
		}
	}
	if kraft > tableSize {
		return errors.New("code lengths oversubscribe the code space (Kraft sum over 1)")
	}
	t.bits = uint(longest)
	width := 1 << longest
	clear(t.entry[:width])
	var next [maxCodeLen + 1]uint16
	canonicalStarts(&count, &next)
	for sym := range int(used) {
		l := lens[sym]
		if l == 0 {
			continue
		}
		e := uint16(sym)<<4 | uint16(l)
		for i := int(bits.Reverse16(next[l]) >> (16 - l)); i < width; i += 1 << l {
			t.entry[i] = e
		}
		next[l]++
	}
	return nil
}

// sym decodes the next symbol.
func (t *huffTable) sym(r *bitReader) (int, error) {
	if r.n < t.bits {
		r.refill()
	}
	e := t.entry[r.acc&(1<<t.bits-1)]
	l := uint(e & 15)
	if l == 0 || l > r.n {
		if r.n < t.bits {
			return 0, fmt.Errorf("bitstream: %w", ErrTruncated)
		}
		return 0, errNoCode
	}
	r.acc >>= l
	r.n -= l
	return int(e >> 4), nil
}
