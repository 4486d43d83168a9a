// Package graph provides the weighted directed graph and the PageRank
// centrality behind the Swarm Vulnerability Graph. PageRank is computed
// with the power method, as the paper prescribes.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Digraph is a weighted directed graph over nodes 0..N-1. Edge weights
// must be positive; parallel edges overwrite.
type Digraph struct {
	n int
	// out[u] maps v -> weight of edge u->v.
	out []map[int]float64
}

// NewDigraph returns an empty graph with n nodes.
func NewDigraph(n int) *Digraph {
	g := &Digraph{
		n:   n,
		out: make([]map[int]float64, n),
	}
	for i := 0; i < n; i++ {
		g.out[i] = make(map[int]float64)
	}
	return g
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

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
	g.out[u][v] = w
	return nil
}

// Weight returns the weight of edge u->v and whether it exists.
func (g *Digraph) Weight(u, v int) (float64, bool) {
	if u < 0 || u >= g.n {
		return 0, false
	}
	w, ok := g.out[u][v]
	return w, ok
}

// HasEdge reports whether edge u->v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// NumEdges returns the total edge count.
func (g *Digraph) NumEdges() int {
	total := 0
	for _, m := range g.out {
		total += len(m)
	}
	return total
}

// OutNeighbors calls fn for every edge u->v with its weight.
// Iteration order is unspecified.
func (g *Digraph) OutNeighbors(u int, fn func(v int, w float64)) {
	for v, w := range g.out[u] {
		fn(v, w)
	}
}

// sortedOut returns the adjacency in compressed sparse-row form with
// every node's out-neighbours in ascending order: the edges of u are
// dst[start[u]:start[u+1]] with weights wt[start[u]:start[u+1]].
func (g *Digraph) sortedOut() (start, dst []int, wt []float64) {
	start = make([]int, g.n+1)
	dst = make([]int, 0, g.NumEdges())
	for u, m := range g.out {
		mark := len(dst)
		for v := range m {
			dst = append(dst, v)
		}
		sort.Ints(dst[mark:])
		start[u+1] = len(dst)
	}
	wt = make([]float64, len(dst))
	for u := 0; u < g.n; u++ {
		for e := start[u]; e < start[u+1]; e++ {
			wt[e] = g.out[u][dst[e]]
		}
	}
	return start, dst, wt
}

// Transpose returns the graph with every edge reversed. SwarmFuzz uses
// the transposed SVG to score potential victim drones.
func (g *Digraph) Transpose() *Digraph {
	t := NewDigraph(g.n)
	for u := range g.out {
		for v, w := range g.out[u] {
			t.out[v][u] = w
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
		for nb := range g.out[cur] {
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
