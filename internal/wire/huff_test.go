package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fj"
)

// huffBlock frames a hand-written scheme 4 body: count events whose
// record form is rawLen bytes, then the bits body writes, padded.
func huffBlock(count, rawLen int, body func(w *bitWriter)) []byte {
	b := binary.AppendUvarint([]byte{7}, uint64(count))
	b = binary.AppendUvarint(b, uint64(rawLen))
	w := bitWriter{buf: append(b, blockHuffman)}
	body(&w)
	return w.flush()
}

// testCode is the code the encoder builds for an alphabet of size
// symbols in which each of syms occurs once.
func testCode(size int, syms ...int) *huffCode {
	c := new(huffCode)
	for _, s := range syms {
		c.freq[s]++
	}
	c.build(size, new(huffScratch))
	return c
}

// testCodes writes the five code headers, with the listed symbols
// used in the op, lag, dT, dU and dA alphabets.
func testCodes(w *bitWriter, op, lag, dT, dU, dA []int) [numAlphabets]*huffCode {
	var cs [numAlphabets]*huffCode
	for a, syms := range [][]int{op, lag, dT, dU, dA} {
		cs[a] = testCode(alphabetSize[a], syms...)
		cs[a].writeHeader(w)
	}
	return cs
}

// putTestValue writes v in alphabet code c with its extra bits.
func putTestValue(w *bitWriter, c *huffCode, v uint64) {
	sym, nx, x := valueSymbol(v)
	c.put(w, sym)
	w.writeLong(x, nx)
}

// beginT writes a literal begin by the task dT after the previous one.
func beginT(w *bitWriter, cs [numAlphabets]*huffCode, dT int64) {
	cs[alphOp].put(w, int(fj.EvBegin))
	putTestValue(w, cs[alphT], zigzag(dT))
}

// putCopy writes a copy token of n tuples from lag.
func putCopy(w *bitWriter, cs [numAlphabets]*huffCode, n, lag uint64) {
	sym, nx, x := valueSymbol(n - 2)
	cs[alphOp].put(w, opCopy+sym)
	w.write(x, nx)
	putTestValue(w, cs[alphLag], lag-1)
}

// symOf is the value symbol of v.
func symOf(v uint64) int { s, _, _ := valueSymbol(v); return s }

// huffRefusals are scheme 4 blocks the decoder must refuse, one per
// check, each with the error text that names the check. Their block
// headers are honest (count <= rawLen/2), so the body is what fails.
func huffRefusals() []struct {
	name, want string
	block      []byte
} {
	good := new(BlockEncoder).AppendBlock(nil, 1, benchEvents(512))
	none := []int(nil)
	return []struct {
		name, want string
		block      []byte
	}{
		{"prefix past alphabet", "exceeds the 64-symbol alphabet", huffBlock(1, 2, func(w *bitWriter) {
			w.write(numOps+1, prefixBits)
		})},
		{"code length over 12", "code length 13", huffBlock(1, 2, func(w *bitWriter) {
			w.write(1, prefixBits)
			w.write(13, lengthBits)
		})},
		{"kraft over 1", "Kraft", huffBlock(1, 2, func(w *bitWriter) {
			w.write(3, prefixBits)
			for range 3 {
				w.write(1, lengthBits)
			}
		})},
		{"no code", "matches no code", huffBlock(1, 2, func(w *bitWriter) {
			// One op with the 1-bit code 0; the token says 1.
			testCodes(w, []int{int(fj.EvBegin)}, none, []int{0}, none, none)
			w.write(1, 1)
			w.write(0, 16)
		})},
		{"unknown op", "unknown op 45", huffBlock(1, 2, func(w *bitWriter) {
			cs := testCodes(w, []int{opAssigned}, none, none, none, none)
			cs[alphOp].put(w, opAssigned)
		})},
		{"task id below 0", "task id -1 out of range", huffBlock(1, 2, func(w *bitWriter) {
			beginT(w, testCodes(w, []int{int(fj.EvBegin)}, none, []int{symOf(zigzag(-1))}, none, none), -1)
		})},
		{"task id past 2^40", "out of range", huffBlock(1, 7, func(w *bitWriter) {
			beginT(w, testCodes(w, []int{int(fj.EvBegin)}, none, []int{symOf(zigzag(maxBlockTask + 1))}, none, none), maxBlockTask+1)
		})},
		{"lag past decoded", "copy lag 1 out of range", huffBlock(2, 4, func(w *bitWriter) {
			putCopy(w, testCodes(w, []int{opCopy}, []int{0}, none, none, none), 2, 1)
		})},
		{"lag past 255", "copy lag 256 out of range", huffBlock(258, 516, func(w *bitWriter) {
			cs := testCodes(w, []int{int(fj.EvBegin), opCopy + symOf(255-2), opCopy},
				[]int{0, symOf(255)}, []int{0}, none, none)
			beginT(w, cs, 0)
			putCopy(w, cs, 255, 1)
			putCopy(w, cs, 2, 256)
		})},
		{"copy past count", "copy run of 3 exceeds remaining 2", huffBlock(3, 6, func(w *bitWriter) {
			cs := testCodes(w, []int{int(fj.EvBegin), opCopy + 1}, []int{0}, []int{0}, none, none)
			beginT(w, cs, 0)
			putCopy(w, cs, 3, 1)
		})},
		{"record form short of rawLen", "record form is 2 bytes, declared 3", huffBlock(1, 3, func(w *bitWriter) {
			beginT(w, testCodes(w, []int{int(fj.EvBegin)}, none, []int{0}, none, none), 0)
		})},
		{"record form past rawLen", "exceeds declared raw length 4", huffBlock(2, 4, func(w *bitWriter) {
			cs := testCodes(w, []int{int(fj.EvBegin)}, none, []int{0, symOf(zigzag(200))}, none, none)
			beginT(w, cs, 0)
			beginT(w, cs, 200)
		})},
		{"read past end", "truncated", good[:len(good)-1]},
		{"trailing byte", "trailing bytes", append(append([]byte(nil), good...), 0)},
		{"non-zero padding", "padding", huffBlock(1, 2, func(w *bitWriter) {
			beginT(w, testCodes(w, []int{int(fj.EvBegin)}, none, []int{0}, none, none), 0)
			w.write(1, 1)
		})},
	}
}

// TestBlockHuffmanRefusals: each scheme 4 check refuses its hostile
// block with its own error, while the same hand-built framing decodes
// when honest.
func TestBlockHuffmanRefusals(t *testing.T) {
	honest := huffBlock(1, 2, func(w *bitWriter) {
		beginT(w, testCodes(w, []int{int(fj.EvBegin)}, nil, []int{0}, nil, nil), 0)
	})
	var dec BlockDecoder
	if _, out, _, err := dec.DecodeBlockInto(nil, honest); err != nil || len(out) != 1 || out[0] != (fj.Event{Kind: fj.EvBegin}) {
		t.Fatalf("honest hand-built block: %v, %v", out, err)
	}
	for _, c := range huffRefusals() {
		if s := blockScheme(t, c.block); s != blockHuffman {
			t.Fatalf("%s: scheme %d, want %d", c.name, s, blockHuffman)
		}
		_, out, _, err := dec.DecodeBlockInto(nil, c.block)
		if err == nil {
			t.Errorf("%s: accepted, %d events", c.name, len(out))
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.want)
		}
	}
	// Truncation anywhere in a scheme 4 body is ErrTruncated.
	good := new(BlockEncoder).AppendBlock(nil, 1, benchEvents(512))
	for cut := len(good) - 24; cut < len(good); cut++ {
		if _, _, _, err := dec.DecodeBlockInto(nil, good[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d of %d: %v, want ErrTruncated", cut, len(good), err)
		}
	}
}

// TestBlockCodesAreLengthLimited: a block whose symbol frequencies
// follow the Fibonacci sequence, which drives an unlimited Huffman code
// to one more bit per symbol, still codes within maxCodeLen bits and
// satisfies the Kraft inequality exactly.
func TestBlockCodesAreLengthLimited(t *testing.T) {
	var c huffCode
	a, b := uint32(1), uint32(1)
	for s := range 24 {
		c.freq[s] = a
		a, b = b, a+b
	}
	c.build(valueSymbols, new(huffScratch))
	kraft := 0
	for s := range 24 {
		if c.len[s] == 0 || c.len[s] > maxCodeLen {
			t.Fatalf("symbol %d: code length %d", s, c.len[s])
		}
		kraft += tableSize >> c.len[s]
	}
	if kraft != tableSize {
		t.Fatalf("Kraft sum %d/%d, want a complete code", kraft, tableSize)
	}
	var w bitWriter
	c.writeHeader(&w)
	for s := range 24 {
		c.put(&w, s)
	}
	var tab huffTable
	r := bitReader{buf: w.flush()}
	if err := tab.readCode(&r, valueSymbols); err != nil {
		t.Fatal(err)
	}
	for s := range 24 {
		if got, err := tab.sym(&r); err != nil || got != s {
			t.Fatalf("symbol %d decoded as %d (%v)", s, got, err)
		}
	}
}

// TestBlockPipelineRepeatsExactly pins the cursor model: a pipeline
// item touches four address regions, and with one cursor per region its
// tuples repeat exactly, so the copy layer leaves a handful of literals
// (20 today) in a 4096-event block.
func TestBlockPipelineRepeatsExactly(t *testing.T) {
	events := benchEvents(4096)
	var enc BlockEncoder
	var dec BlockDecoder
	payload := roundTripBlock(t, &enc, &dec, 1, events)
	if s := blockScheme(t, payload); s != blockHuffman {
		t.Fatalf("scheme %d, want %d", s, blockHuffman)
	}
	literals := 0
	for _, tk := range enc.tokens {
		if tk.n == 0 {
			literals++
		}
	}
	if literals > 32 {
		t.Fatalf("%d literals in a 4096-event pipeline block", literals)
	}
}

// TestBlockRetiredSchemesRefused: blocks an older encoder wrote in
// schemes 1 and 3 (testdata/*.block) and a scheme 2 block are refused
// as unknown, while that encoder's raw (scheme 0) block still decodes
// to its events' record form (far-task.events).
func TestBlockRetiredSchemesRefused(t *testing.T) {
	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, block := range map[string][]byte{
		"pipeline":       golden("pipeline.block"),
		"fork-join":      golden("fork-join.block"),
		"random-address": golden("random-address.block"),
		"repetitive":     golden("repetitive.block"),
		"flate garbage":  {5, 2, 4, 2, 0xde, 0xad, 0xbe, 0xef},
	} {
		scheme := blockScheme(t, block)
		if scheme < 1 || scheme > 3 {
			t.Fatalf("%s: block has scheme %d, want a retired one", name, scheme)
		}
		var dec BlockDecoder
		_, out, _, err := dec.DecodeBlockInto(nil, block)
		if want := fmt.Sprintf("unknown scheme %d", scheme); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %d events, %v; want %q", name, len(out), err, want)
		}
	}

	block, want := golden("far-task.block"), golden("far-task.events")
	if s := blockScheme(t, block); s != blockRaw {
		t.Fatalf("far-task: golden block has scheme %d, want %d", s, blockRaw)
	}
	var dec BlockDecoder
	_, got, rawLen, err := dec.DecodeBlockInto(nil, block)
	if err != nil {
		t.Fatalf("far-task: %v", err)
	}
	if rawLen != len(want) || !bytes.Equal(fj.AppendEvents(nil, got), want) {
		t.Fatalf("far-task: %d events (raw %d) differ from the golden record form (%d bytes)", len(got), rawLen, len(want))
	}
}

// TestBlockCodecSteadyStateAllocs: once warmed on a class, an encoder
// and decoder allocate nothing per block.
func TestBlockCodecSteadyStateAllocs(t *testing.T) {
	const frame = 4096
	for class, events := range codecClasses(t) {
		var enc BlockEncoder
		var dec BlockDecoder
		var buf []byte
		var slab []fj.Event
		off := 0
		block := func() {
			cut := events[off:min(off+frame, len(events))]
			buf = enc.AppendBlock(buf[:0], 1, cut)
			var err error
			if _, slab, _, err = dec.DecodeBlockInto(slab[:0], buf); err != nil || len(slab) != len(cut) {
				t.Fatalf("%s: block at %d: %v", class, off, err)
			}
			if off += frame; off >= len(events) {
				off = 0
			}
		}
		for range len(events) / frame { // warm: buffers reach their largest block
			block()
		}
		if allocs := testing.AllocsPerRun(2*len(events)/frame, block); allocs != 0 {
			t.Errorf("%s: %.2f allocations per block", class, allocs)
		}
	}
}
