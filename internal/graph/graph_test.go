package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSetEdgeValidation(t *testing.T) {
	g := NewDigraph(3)
	if err := g.SetEdge(-1, 0, 1); err == nil {
		t.Error("negative source accepted")
	}
	if err := g.SetEdge(0, 3, 1); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := g.SetEdge(1, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.SetEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.SetEdge(0, 1, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.SetEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := g.SetEdge(0, 1, math.Inf(1)); err == nil {
		t.Error("Inf weight accepted")
	}
	if err := g.SetEdge(0, 1, 0.5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := NewDigraph(4)
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	mustEdge(t, g, 0, 1, 2.0)
	mustEdge(t, g, 0, 2, 1.0)
	mustEdge(t, g, 2, 1, 3.0)

	if w, ok := weight(g, 0, 1); !ok || w != 2.0 {
		t.Errorf("Weight(0,1) = %v,%v", w, ok)
	}
	if _, ok := weight(g, 1, 0); ok {
		t.Error("edge direction ignored: (1,0) should not exist")
	}
	if _, ok := weight(g, -1, 0); ok {
		t.Error("Weight accepted out-of-range source")
	}
	_, back := weight(g, 2, 1)
	if _, fwd := weight(g, 1, 2); !back || fwd {
		t.Error("Weight direction wrong")
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestSetEdgeOverwrite(t *testing.T) {
	g := NewDigraph(2)
	mustEdge(t, g, 0, 1, 1.0)
	mustEdge(t, g, 0, 1, 5.0)
	if w, _ := weight(g, 0, 1); w != 5.0 {
		t.Errorf("overwritten weight = %v, want 5", w)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges after overwrite = %d, want 1", g.NumEdges())
	}
}

func TestTranspose(t *testing.T) {
	g := NewDigraph(3)
	mustEdge(t, g, 0, 1, 2.0)
	mustEdge(t, g, 1, 2, 3.0)
	tr := g.Transpose()
	if w, ok := weight(tr, 1, 0); !ok || w != 2.0 {
		t.Errorf("transposed edge (1,0) = %v,%v", w, ok)
	}
	if w, ok := weight(tr, 2, 1); !ok || w != 3.0 {
		t.Errorf("transposed edge (2,1) = %v,%v", w, ok)
	}
	if _, ok := weight(tr, 0, 1); ok {
		t.Error("transpose retained original edge")
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Error("transpose changed edge count")
	}
}

func TestHasPath(t *testing.T) {
	g := NewDigraph(5)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	mustEdge(t, g, 3, 4, 1)
	if !g.HasPath(0, 2) {
		t.Error("path 0->2 not found")
	}
	if !g.HasPath(2, 2) {
		t.Error("trivial path not found")
	}
	if g.HasPath(2, 0) {
		t.Error("reverse path reported")
	}
	if g.HasPath(0, 4) {
		t.Error("cross-component path reported")
	}
}

func TestOutNeighborsVisitsAll(t *testing.T) {
	g := NewDigraph(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 0, 2, 2)
	mustEdge(t, g, 0, 3, 3)
	sum := 0.0
	count := 0
	g.OutNeighbors(0, func(_ int, w float64) {
		sum += w
		count++
	})
	if count != 3 || sum != 6 {
		t.Errorf("OutNeighbors visited %d edges with weight sum %v", count, sum)
	}
}

func mustEdge(t *testing.T, g *Digraph, u, v int, w float64) {
	t.Helper()
	if err := g.SetEdge(u, v, w); err != nil {
		t.Fatalf("SetEdge(%d,%d,%v): %v", u, v, w, err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(edges [][2]uint8, weights []float64) bool {
		g := NewDigraph(8)
		for i, e := range edges {
			u, v := int(e[0])%8, int(e[1])%8
			if u == v {
				continue
			}
			w := 1.0
			if i < len(weights) {
				w = math.Abs(math.Mod(weights[i], 10)) + 0.1
			}
			if err := g.SetEdge(u, v, w); err != nil {
				return false
			}
		}
		tt := g.Transpose().Transpose()
		if tt.NumEdges() != g.NumEdges() {
			return false
		}
		for u := 0; u < 8; u++ {
			ok := true
			g.OutNeighbors(u, func(v int, w float64) {
				if w2, has := weight(tt, u, v); !has || w2 != w {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// weight returns the weight of edge u->v and whether it exists.
func weight(g *Digraph, u, v int) (float64, bool) {
	if u < 0 || u >= g.n {
		return 0, false
	}
	if i, ok := g.find(u, v); ok {
		return g.out[u][i].w, true
	}
	return 0, false
}
