// Package om implements an order-maintenance list: a dynamic total order
// supporting insert-after and O(1) order comparison, with amortized
// cheap insertions via tag renumbering.
//
// It is the substrate of the English–Hebrew SP-order race detector
// (internal/baseline/spom), the maintenance-based alternative to SP-bags
// from Bender, Fineman, Gilbert and Leiserson (the paper's reference
// [3]): two order-maintenance lists form an online 2-realizer of a
// series-parallel DAG, foreshadowing the Dushnik–Miller view the paper
// generalizes to all 2D lattices.
package om

// Item is an element of the ordered list. Items are created by the
// list's Insert methods and compared with Before.
type Item struct {
	tag  uint64
	prev *Item
	next *Item
	list *List
}

// List is an order-maintenance list. The zero value is not usable; call
// New.
type List struct {
	head *Item // sentinel with the minimum tag
	tail *Item // sentinel with the maximum tag
	size int

	relabels int // number of renumber passes, for tests/benchmarks
}

const (
	minTag = uint64(0)
	maxTag = ^uint64(0)
)

// New returns an empty list.
func New() *List {
	l := &List{}
	l.head = &Item{tag: minTag, list: l}
	l.tail = &Item{tag: maxTag, list: l}
	l.head.next = l.tail
	l.tail.prev = l.head
	return l
}

// Len returns the number of user items.
func (l *List) Len() int { return l.size }

// InsertFirst inserts a fresh item at the front of the order.
func (l *List) InsertFirst() *Item { return l.InsertAfter(l.head) }

// InsertAfter inserts a fresh item immediately after ref, which must
// belong to this list (the head sentinel is permitted via InsertFirst).
func (l *List) InsertAfter(ref *Item) *Item {
	if ref.list != l {
		panic("om: InsertAfter with foreign item")
	}
	next := ref.next
	if next == nil {
		panic("om: InsertAfter the tail sentinel")
	}
	if ref.tag+1 == next.tag || ref.tag == next.tag {
		l.renumber()
	}
	it := &Item{
		tag:  ref.tag + (next.tag-ref.tag)/2,
		prev: ref,
		next: next,
		list: l,
	}
	ref.next = it
	next.prev = it
	l.size++
	return it
}

// renumber redistributes all tags evenly. A single global pass keeps the
// implementation simple; it is amortized against the gap-halving
// insertions between passes, giving amortized O(log n) insertions —
// ample for the detector, whose costs the experiments measure end to
// end.
func (l *List) renumber() {
	l.relabels++
	n := uint64(l.size) + 2
	gap := maxTag / n
	if gap == 0 {
		panic("om: list too large to renumber")
	}
	tag := uint64(0)
	for it := l.head; it != nil; it = it.next {
		it.tag = tag
		tag += gap
	}
	l.tail.tag = maxTag
}

// Before reports whether a precedes b in the order. Both must belong to
// the same list.
func (a *Item) Before(b *Item) bool {
	if a.list != b.list {
		panic("om: comparing items from different lists")
	}
	return a.tag < b.tag
}
