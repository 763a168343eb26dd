package fj

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestUncompressedFigure2(t *testing.T) {
	us := NewUncompressedSink()
	_, err := Run(figure2, us, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !us.Racy() {
		t.Fatal("uncompressed sink missed the Figure 2 race")
	}
	if len(us.Races()) != 1 || us.Races()[0].Kind != core.ReadWrite {
		t.Fatalf("races = %v", us.Races())
	}
}

// TestCompressionEquivalenceProperty is the paper's Equation (9): the
// thread-compressed detector and the operation-granularity detector make
// identical verdicts — every comparison is preserved — on random
// structured programs.
func TestCompressionEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, 2+rng.Intn(40), 5)
		compressed := NewDetectorSink(16)
		uncompressed := NewUncompressedSink()
		if _, err := Run(prog, MultiSink{compressed, uncompressed}, Options{AutoJoin: true}); err != nil {
			return false
		}
		if compressed.Racy() != uncompressed.Racy() {
			t.Logf("seed %d: compressed=%v uncompressed=%v", seed,
				compressed.Racy(), uncompressed.Racy())
			return false
		}
		if compressed.D.Count() != uncompressed.D.Count() {
			t.Logf("seed %d: counts %d vs %d", seed,
				compressed.D.Count(), uncompressed.D.Count())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressionSavesMemory demonstrates the point of Section 4's
// transformation: walker state grows with operations when uncompressed,
// with tasks when compressed.
func TestCompressionSavesMemory(t *testing.T) {
	run := func(opsPerTask int) (compressedBytes, uncompressedBytes int) {
		cs := NewDetectorSink(4)
		us := NewUncompressedSink()
		_, err := Run(func(t *Task) {
			t.Fork(func(c *Task) {
				for i := 0; i < opsPerTask; i++ {
					c.Write(core.Addr(i%8 + 1))
				}
			})
			for i := 0; i < opsPerTask; i++ {
				t.Read(core.Addr(i%8 + 100))
			}
		}, MultiSink{cs, us}, Options{AutoJoin: true})
		if err != nil {
			t.Fatal(err)
		}
		return cs.D.W.MemoryBytes(), us.D.W.MemoryBytes()
	}
	c1, u1 := run(10)
	c2, u2 := run(1000)
	if c1 != c2 {
		t.Fatalf("compressed walker grew with ops: %d -> %d", c1, c2)
	}
	if u2 < 10*u1 {
		t.Fatalf("uncompressed walker did not grow with ops: %d -> %d", u1, u2)
	}
}

func TestUncompressedVerticesCountOps(t *testing.T) {
	us := NewUncompressedSink()
	tasks, err := Run(figure2, us, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Vertices: one per begin, fork, join, read, write event.
	var tr Trace
	if _, err := Run(figure2, &tr, Options{}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range tr.Events {
		switch e.Kind {
		case EvBegin, EvFork, EvJoin, EvRead, EvWrite:
			want++
		}
	}
	if us.next != want {
		t.Fatalf("vertices = %d, want %d (tasks %d)", us.next, want, tasks)
	}
}
