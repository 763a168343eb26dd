package om

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertAfterChain(t *testing.T) {
	l := New()
	a := l.InsertFirst()
	b := l.InsertAfter(a)
	c := l.InsertAfter(b)
	if !a.Before(b) || !b.Before(c) || !a.Before(c) {
		t.Fatal("chain order wrong")
	}
	if c.Before(a) || b.Before(a) {
		t.Fatal("reverse comparisons wrong")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestInsertBetween(t *testing.T) {
	l := New()
	a := l.InsertFirst()
	c := l.InsertAfter(a)
	b := l.InsertAfter(a) // between a and c
	if !a.Before(b) || !b.Before(c) {
		t.Fatal("between insertion wrong")
	}
}

func TestAdversarialFrontInsertions(t *testing.T) {
	// Repeated front insertions exhaust the head gap and force
	// renumbering; order must survive.
	l := New()
	items := make([]*Item, 0, 5000)
	for i := 0; i < 5000; i++ {
		items = append(items, l.InsertFirst())
	}
	for i := 1; i < len(items); i++ {
		// Later front-insertions come earlier in the order.
		if !items[i].Before(items[i-1]) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if l.relabels == 0 {
		t.Fatal("expected at least one renumber pass")
	}
}

func TestAdversarialSameSlotInsertions(t *testing.T) {
	l := New()
	anchor := l.InsertFirst()
	var prev *Item
	for i := 0; i < 5000; i++ {
		it := l.InsertAfter(anchor)
		if prev != nil && !it.Before(prev) {
			t.Fatalf("same-slot order broken at %d", i)
		}
		prev = it
	}
}

// TestMatchesReferenceProperty: random insert-after sequences compared
// against a slice-based reference order.
func TestMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		ref := []*Item{l.InsertFirst()}
		for i := 0; i < 300; i++ {
			k := rng.Intn(len(ref))
			it := l.InsertAfter(ref[k])
			// Insert into the reference slice right after position k.
			ref = append(ref, nil)
			copy(ref[k+2:], ref[k+1:])
			ref[k+1] = it
		}
		pos := map[*Item]int{}
		for i, it := range ref {
			pos[it] = i
		}
		for trial := 0; trial < 200; trial++ {
			a, b := ref[rng.Intn(len(ref))], ref[rng.Intn(len(ref))]
			if a == b {
				continue
			}
			if a.Before(b) != (pos[a] < pos[b]) {
				return false
			}
		}
		// The tag order must equal the reference order globally.
		sorted := append([]*Item(nil), ref...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
		for i := range sorted {
			if sorted[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForeignItemPanics(t *testing.T) {
	l1, l2 := New(), New()
	a := l1.InsertFirst()
	b := l2.InsertFirst()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Before(b)
}

func TestInsertAfterForeignPanics(t *testing.T) {
	l1, l2 := New(), New()
	a := l1.InsertFirst()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l2.InsertAfter(a)
}

func BenchmarkInsertAndCompare(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := New()
		anchor := l.InsertFirst()
		var last *Item
		for k := 0; k < 4096; k++ {
			last = l.InsertAfter(anchor)
		}
		if !anchor.Before(last) {
			b.Fatal("order wrong")
		}
	}
}
