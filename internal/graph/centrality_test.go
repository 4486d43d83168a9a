package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPageRankOptionsValidate(t *testing.T) {
	if err := DefaultPageRankOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := []PageRankOptions{
		{Damping: 0, Tol: 1e-9, MaxIter: 10},
		{Damping: 1, Tol: 1e-9, MaxIter: 10},
		{Damping: 0.85, Tol: 0, MaxIter: 10},
		{Damping: 0.85, Tol: 1e-9, MaxIter: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	r, err := PageRank(NewDigraph(0), DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Errorf("empty graph rank = %v, want nil", r)
	}
}

func TestPageRankNoEdgesUniform(t *testing.T) {
	r, err := PageRank(NewDigraph(4), DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r {
		if math.Abs(v-0.25) > 1e-6 {
			t.Errorf("rank[%d] = %v, want 0.25", i, v)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := NewDigraph(5)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 2, 0, 0.5)
	mustEdge(t, g, 3, 2, 1)
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range r {
		if v <= 0 {
			t.Errorf("non-positive rank %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
}

func TestPageRankHub(t *testing.T) {
	// Star: everyone links to node 0 — node 0 must dominate.
	g := NewDigraph(5)
	for i := 1; i < 5; i++ {
		mustEdge(t, g, i, 0, 1)
	}
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if r[0] <= r[i] {
			t.Errorf("hub rank %v not above leaf rank %v", r[0], r[i])
		}
	}
}

func TestPageRankWeightSensitivity(t *testing.T) {
	// Node 0 links strongly to 1 and weakly to 2: rank(1) > rank(2).
	g := NewDigraph(3)
	mustEdge(t, g, 0, 1, 10)
	mustEdge(t, g, 0, 2, 1)
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r[1] <= r[2] {
		t.Errorf("heavier edge target rank %v not above lighter %v", r[1], r[2])
	}
}

func TestPageRankChainDecay(t *testing.T) {
	// Chain 3->2->1->0: influence accumulates toward the sink.
	g := NewDigraph(4)
	mustEdge(t, g, 3, 2, 1)
	mustEdge(t, g, 2, 1, 1)
	mustEdge(t, g, 1, 0, 1)
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(r[0] > r[1] && r[1] > r[2] && r[2] >= r[3]) {
		t.Errorf("chain ranks not monotone: %v", r)
	}
}

func TestPageRankInvalidOptions(t *testing.T) {
	if _, err := PageRank(NewDigraph(2), PageRankOptions{}); err == nil {
		t.Error("zero-value options accepted")
	}
}

func TestPropPageRankDistribution(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		g := NewDigraph(6)
		for _, e := range edges {
			u, v := int(e[0])%6, int(e[1])%6
			if u == v {
				continue
			}
			if err := g.SetEdge(u, v, 1); err != nil {
				return false
			}
		}
		r, err := PageRank(g, DefaultPageRankOptions())
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range r {
			if v <= 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPageRankRepeatable requires bit-identical scores from repeated
// calls on one dense weighted graph. Summing neighbour contributions in
// map order would make the low bits differ from call to call, and the
// seed schedule ranks drones by these scores.
func TestPageRankRepeatable(t *testing.T) {
	const n = 15
	g := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && (u*7+v*3)%4 != 0 {
				mustEdge(t, g, u, v, 0.1+float64((u*31+v*17)%97)/13)
			}
		}
	}
	want, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 100; call++ {
		got, err := PageRank(g, DefaultPageRankOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("call %d: rank[%d] = %v, want %v bit for bit", call, i, got[i], want[i])
			}
		}
	}
}
