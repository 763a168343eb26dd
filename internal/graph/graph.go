// Package graph provides the directed-graph substrate used throughout the
// repository: adjacency-list digraphs, topological sorting, reachability
// closures and DOT export.
//
// Task graphs, lattice diagrams and traversal inputs are all represented as
// Digraph values. The package is deliberately minimal and allocation-aware:
// vertex identifiers are dense ints assigned by AddVertex, and most
// algorithms run over plain slices.
package graph

import (
	"fmt"
	"sort"
)

// V is a vertex identifier. Vertices are dense: the k-th vertex added to a
// Digraph has identifier k.
type V = int

// Arc is a directed edge from S to T.
type Arc struct {
	S, T V
}

// Digraph is a mutable directed graph with dense vertex identifiers.
// The zero value is an empty graph ready to use.
type Digraph struct {
	out [][]V // out[v] lists successors of v in insertion order
	in  [][]V // in[v] lists predecessors of v in insertion order
	m   int   // number of arcs
}

// New returns a digraph with n vertices (0..n-1) and no arcs.
func New(n int) *Digraph {
	return &Digraph{
		out: make([][]V, n),
		in:  make([][]V, n),
	}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.out) }

// M returns the number of arcs.
func (g *Digraph) M() int { return g.m }

// AddVertex adds a fresh vertex and returns its identifier.
func (g *Digraph) AddVertex() V {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// AddArc inserts the arc (s, t). Multi-arcs are permitted; callers that need
// simple graphs must not insert duplicates. The arc order is significant:
// the successor list of s records arcs left-to-right in insertion order,
// which planar-diagram code uses as the embedding order.
func (g *Digraph) AddArc(s, t V) {
	if s < 0 || s >= len(g.out) || t < 0 || t >= len(g.out) {
		panic(fmt.Sprintf("graph: AddArc(%d, %d) out of range [0, %d)", s, t, len(g.out)))
	}
	g.out[s] = append(g.out[s], t)
	g.in[t] = append(g.in[t], s)
	g.m++
}

// Out returns the successor list of v. The caller must not mutate it.
func (g *Digraph) Out(v V) []V { return g.out[v] }

// OutDeg returns the out-degree of v.
func (g *Digraph) OutDeg(v V) int { return len(g.out[v]) }

// InDeg returns the in-degree of v.
func (g *Digraph) InDeg(v V) int { return len(g.in[v]) }

// HasArc reports whether the arc (s, t) is present.
func (g *Digraph) HasArc(s, t V) bool {
	for _, u := range g.out[s] {
		if u == t {
			return true
		}
	}
	return false
}

// Arcs returns all arcs in an unspecified but deterministic order.
func (g *Digraph) Arcs() []Arc {
	arcs := make([]Arc, 0, g.m)
	for s := range g.out {
		for _, t := range g.out[s] {
			arcs = append(arcs, Arc{s, t})
		}
	}
	return arcs
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	h := New(g.N())
	for s := range g.out {
		for _, t := range g.out[s] {
			h.AddArc(s, t)
		}
	}
	return h
}

// Reverse returns the graph with every arc flipped. Reversing a poset
// diagram swaps infima and suprema (Remark 2 of the paper).
func (g *Digraph) Reverse() *Digraph {
	h := New(g.N())
	for s := range g.out {
		for _, t := range g.out[s] {
			h.AddArc(t, s)
		}
	}
	return h
}

// Sources returns the vertices with no incoming arcs, ascending.
func (g *Digraph) Sources() []V {
	var src []V
	for v := range g.in {
		if len(g.in[v]) == 0 {
			src = append(src, v)
		}
	}
	return src
}

// Sinks returns the vertices with no outgoing arcs, ascending.
func (g *Digraph) Sinks() []V {
	var snk []V
	for v := range g.out {
		if len(g.out[v]) == 0 {
			snk = append(snk, v)
		}
	}
	return snk
}

// TopoSort returns a topological order of the vertices, or ok=false if the
// graph has a cycle. The order is the lexicographically smallest one
// (Kahn's algorithm with a min-heap behaviour implemented via sorted
// frontier), which makes test output deterministic.
func (g *Digraph) TopoSort() (order []V, ok bool) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.in[v])
	}
	frontier := make([]V, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	order = make([]V, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		v := frontier[0]
		frontier = frontier[1:]
		order = append(order, v)
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// IsAcyclic reports whether the graph is a DAG.
func (g *Digraph) IsAcyclic() bool {
	_, ok := g.TopoSort()
	return ok
}
