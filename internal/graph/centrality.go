package graph

import (
	"fmt"
	"math"
)

// PageRankOptions parameterise the power-method PageRank computation.
type PageRankOptions struct {
	// Damping is the damping factor, usually 0.85.
	Damping float64
	// Tol is the L1 convergence tolerance.
	Tol float64
	// MaxIter caps the number of power iterations.
	MaxIter int
}

// DefaultPageRankOptions returns the standard parameterisation
// (damping 0.85, tolerance 1e-9, 200 iterations).
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Tol: 1e-9, MaxIter: 200}
}

// Validate returns an error if the options are unusable.
func (o PageRankOptions) Validate() error {
	switch {
	case o.Damping <= 0 || o.Damping >= 1:
		return fmt.Errorf("graph: damping %v must be in (0,1)", o.Damping)
	case o.Tol <= 0:
		return fmt.Errorf("graph: tolerance %v must be positive", o.Tol)
	case o.MaxIter < 1:
		return fmt.Errorf("graph: max iterations %d must be >= 1", o.MaxIter)
	}
	return nil
}

// PageRank computes the weighted PageRank score of every node using
// the power method. A node's score flows along its outgoing edges in
// proportion to their weights; dangling nodes distribute uniformly.
// Scores sum to 1.
//
// In the SVG, edge i->j means "drone i is influenced by drone j", so a
// high PageRank marks a highly *influential* drone — a promising
// spoofing target. Run it on the transposed SVG to score how easily a
// drone is influenced — a promising victim.
func PageRank(g *Digraph, opts PageRankOptions) ([]float64, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}

	// Out-edges are stored in ascending order of head, so every sum
	// below runs in one fixed order and repeated calls agree bit for
	// bit.
	outSum := make([]float64, n)
	for u, es := range g.out {
		for _, e := range es {
			outSum[u] += e.w
		}
	}

	base := (1 - opts.Damping) / float64(n)
	for iter := 0; iter < opts.MaxIter; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			if outSum[u] == 0 {
				dangling += rank[u]
				continue
			}
			for _, e := range g.out[u] {
				next[e.to] += rank[u] * e.w / outSum[u]
			}
		}
		delta := 0.0
		for i := range next {
			next[i] = base + opts.Damping*(next[i]+dangling/float64(n))
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < opts.Tol {
			break
		}
	}
	return rank, nil
}
