// Package spatial provides the reusable 2-D cell hash behind the
// simulator's drone-drone collision detector: bucket n points into
// square cells of a query-radius side so that every point within radius
// r of a query point is guaranteed to sit in the 3×3 cell neighbourhood
// of the query's cell — turning an all-pairs O(n²) scan into O(n)
// expected work.
//
// Cells are 2-D (X/Y) because flocking missions fly at near-constant
// altitude; callers still apply their exact 3-D predicate to every
// candidate, so a vertically-spread swarm only costs extra candidate
// checks, never correctness. Cell coordinates are truncated to 32 bits
// when packed, so cells 2³² apart alias — again more candidates, not
// wrong answers.
//
// A Grid is a plain value with reusable storage: Reset/Insert/Head/Next
// perform no allocations once the backing arrays have grown to the
// caller's steady-state size, which is what keeps the simulation step
// allocation-free. It is not safe for concurrent use.
package spatial

import "math"

// Grid is an open-addressed hash table (power-of-two size, linear
// probing) from packed cell coordinates to chains of item indices:
// keys[s] is the cell claimed by slot s, head[s] the most recently
// inserted item in that cell (-1 = empty slot), and next[i] chains
// items sharing a cell in LIFO order.
type Grid struct {
	keys []uint64
	head []int32
	next []int32
	mask uint64
	inv  float64
}

// Reset clears the grid and prepares it for up to n items with the
// given cell side (callers use their query radius). Backing storage is
// reused across calls once grown.
func (g *Grid) Reset(n int, cellSide float64) {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(g.head) < size {
		g.keys = make([]uint64, size)
		g.head = make([]int32, size)
	}
	g.keys = g.keys[:size]
	g.head = g.head[:size]
	for s := range g.head {
		g.head[s] = -1
	}
	if cap(g.next) < n {
		g.next = make([]int32, n)
	}
	g.next = g.next[:n]
	g.mask = uint64(size - 1)
	g.inv = 1 / cellSide
}

// Cell returns the cell coordinate of the axis value v.
func (g *Grid) Cell(v float64) int32 { return int32(math.Floor(v * g.inv)) }

// cellKey packs 2-D cell coordinates into one table key.
func cellKey(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

func hashCell(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15
	return k ^ (k >> 29)
}

// slot returns the table slot owning key k: either the slot already
// claimed by k or the first empty slot of its probe sequence.
func (g *Grid) slot(k uint64) uint64 {
	s := hashCell(k) & g.mask
	for g.head[s] != -1 && g.keys[s] != k {
		s = (s + 1) & g.mask
	}
	return s
}

// Insert adds item i at position (x, y). Item indices must be unique
// within one Reset generation and < the n given to Reset.
func (g *Grid) Insert(i int, x, y float64) {
	k := cellKey(g.Cell(x), g.Cell(y))
	s := g.slot(k)
	g.keys[s] = k
	g.next[i] = g.head[s]
	g.head[s] = int32(i)
}

// Head returns the first item of cell (cx, cy)'s chain, or -1 when the
// cell is empty. Chains iterate in reverse insertion order via Next.
func (g *Grid) Head(cx, cy int32) int32 {
	return g.head[g.slot(cellKey(cx, cy))]
}

// Next returns the item chained after item i in its cell, or -1 at the
// end of the chain.
func (g *Grid) Next(i int32) int32 { return g.next[i] }
