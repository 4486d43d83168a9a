// Package graph provides the weighted directed graph and the PageRank
// centrality behind the Swarm Vulnerability Graph. PageRank is computed
// with the power method, as the paper prescribes.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Digraph is a weighted directed graph over nodes 0..N-1. Edge weights
// must be positive; parallel edges overwrite.
type Digraph struct {
	n int
	// out[u] holds u's out-edges in ascending order of their head, so
	// every traversal, and every floating-point sum over them, runs in
	// one fixed order.
	out [][]edge
}

// edge is one out-edge: its head and weight.
type edge struct {
	to int
	w  float64
}

// NewDigraph returns an empty graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{n: n, out: make([][]edge, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// find returns the position of edge u->v in out[u], or where it would
// be inserted, and whether it exists.
func (g *Digraph) find(u, v int) (int, bool) {
	return slices.BinarySearchFunc(g.out[u], v, func(e edge, v int) int { return cmp.Compare(e.to, v) })
}

// SetEdge adds (or overwrites) the edge u->v with weight w.
func (g *Digraph) SetEdge(u, v int, w float64) error {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	case u == v:
		return fmt.Errorf("graph: self-loop on node %d", u)
	case w <= 0 || math.IsNaN(w) || math.IsInf(w, 0):
		return fmt.Errorf("graph: edge (%d,%d) weight %v must be positive and finite", u, v, w)
	}
	if i, ok := g.find(u, v); ok {
		g.out[u][i].w = w
	} else {
		g.out[u] = slices.Insert(g.out[u], i, edge{to: v, w: w})
	}
	return nil
}

// NumEdges returns the total edge count.
func (g *Digraph) NumEdges() int {
	total := 0
	for _, es := range g.out {
		total += len(es)
	}
	return total
}

// OutNeighbors calls fn for every edge u->v with its weight, in
// ascending order of v.
func (g *Digraph) OutNeighbors(u int, fn func(v int, w float64)) {
	for _, e := range g.out[u] {
		fn(e.to, e.w)
	}
}

// Transpose returns the graph with every edge reversed. SwarmFuzz uses
// the transposed SVG to score potential victim drones. Tails are
// visited in ascending order, so each reversed list is built sorted.
func (g *Digraph) Transpose() *Digraph {
	t := NewDigraph(g.n)
	for u, es := range g.out {
		for _, e := range es {
			t.out[e.to] = append(t.out[e.to], edge{to: u, w: e.w})
		}
	}
	return t
}

// HasPath reports whether v is reachable from u (including u == v).
func (g *Digraph) HasPath(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[cur] {
			nb := e.to
			if nb == v {
				return true
			}
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return false
}
