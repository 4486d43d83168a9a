package comms

import (
	"fmt"
	"slices"

	"swarmfuzz/internal/spatial"
)

// RangeBus delivers broadcasts only between drones within a radio
// range of each other, based on the broadcast (perceived) positions.
// SwarmLab — and the paper — assume full connectivity; the range bus
// is the realistic-radio extension used to study how SPV propagation
// depends on who can hear whom.
type RangeBus struct {
	radius float64
	arena  arena
	grid   spatial.Grid
	cand   []int32
}

var _ Bus = (*RangeBus)(nil)

// rangeGridMin is the publisher count at which the spatial hash
// becomes worth its bookkeeping; below it the all-pairs scan is
// faster. Same crossover regime as the collision grid's.
const rangeGridMin = 24

// NewRangeBus returns a RangeBus with the given radio radius in metres.
func NewRangeBus(radius float64) (*RangeBus, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("comms: radio radius %v must be positive", radius)
	}
	return &RangeBus{radius: radius}, nil
}

// Radius returns the radio radius.
func (b *RangeBus) Radius() float64 { return b.radius }

// Memoryless implements Bus: reachability is judged on each exchange's
// broadcast positions alone.
func (*RangeBus) Memoryless() bool { return true }

// Exchange implements Bus. Reachability is judged on broadcast
// positions: a spoofed drone reports a false position but transmits
// from its true one; using the broadcast position models receivers
// that filter neighbours by claimed distance, which is what
// GPS-position-based neighbour tables do.
func (b *RangeBus) Exchange(published []State) [][]State {
	return copyRows(b.ExchangeInto(published))
}

// ExchangeInto implements Bus. The returned slices alias the bus's
// arena and are valid until the next exchange.
//
// Small exchanges use the reference all-pairs scan; larger ones bucket
// publishers into a spatial hash of cell side = radius, so each
// receiver checks only the 3×3 cell neighbourhood of its broadcast
// position — O(n) expected instead of O(n²). Cells are 2-D while the
// range predicate is the exact 3-D distance, so the cell pass is a
// superset filter and the two paths return row-for-row identical
// observations (candidates are re-sorted into ascending publisher
// order, the order the all-pairs scan emits); the equivalence is
// pinned by TestRangeBusGridMatchesBrute.
func (b *RangeBus) ExchangeInto(published []State) [][]State {
	n := len(published)
	b.arena.reset(n, n*(n-1))
	if n < rangeGridMin {
		for i := 0; i < n; i++ {
			mark := len(b.arena.flat)
			for j := 0; j < n; j++ {
				if published[j].ID == published[i].ID {
					continue
				}
				if published[i].Position.Dist(published[j].Position) <= b.radius {
					b.arena.flat = append(b.arena.flat, published[j])
				}
			}
			b.arena.seal(i, mark)
		}
		return b.arena.rows
	}

	b.grid.Reset(n, b.radius)
	for j := 0; j < n; j++ {
		b.grid.Insert(j, published[j].Position.X, published[j].Position.Y)
	}
	for i := 0; i < n; i++ {
		cand := b.cand[:0]
		cx := b.grid.Cell(published[i].Position.X)
		cy := b.grid.Cell(published[i].Position.Y)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for j := b.grid.Head(cx+dx, cy+dy); j != -1; j = b.grid.Next(j) {
					if published[j].ID == published[i].ID {
						continue
					}
					if published[i].Position.Dist(published[j].Position) <= b.radius {
						cand = append(cand, j)
					}
				}
			}
		}
		// Cell chains iterate in LIFO order; the brute scan emits
		// ascending publisher order, so sort before sealing the row.
		slices.Sort(cand)
		b.cand = cand
		mark := len(b.arena.flat)
		for _, j := range cand {
			b.arena.flat = append(b.arena.flat, published[j])
		}
		b.arena.seal(i, mark)
	}
	return b.arena.rows
}
