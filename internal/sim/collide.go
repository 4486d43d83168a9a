package sim

import "swarmfuzz/internal/spatial"

// Drone-drone collision detection.
//
// The reference semantics are collideBrute below (the original O(n²)
// scan): for each drone i in ascending order that is not yet crashed,
// find the smallest j > i that is not yet crashed and within the
// collision threshold; crash both and emit the pair (i, j). Because
// crashes made earlier in the same pass suppress later pairs, the
// *order* of processing is part of the observable behaviour, which is
// why the grid path reproduces exactly this min-j-per-ascending-i
// selection rather than emitting pairs in cell order.
//
// droneCollider picks between the brute-force scan (small swarms,
// where the grid's bookkeeping costs more than it saves) and a spatial
// hash over 2D cells of side = threshold (large swarms, where it turns
// the scan into O(n) expected work) on spatial.Grid. All storage is
// reused across calls so a steady-state collision pass allocates
// nothing.

// collideGridMin is the swarm size at which the spatial hash becomes
// worth its bookkeeping; below it the brute-force scan is faster.
const collideGridMin = 24

type droneCollider struct {
	grid spatial.Grid
}

// collide finds this tick's drone-drone collisions: it marks the
// involved bodies crashed and appends each (i, minJ) event pair to
// pairs, which it returns. Pass pairs[:0] to reuse the buffer.
func (c *droneCollider) collide(bodies []Body, threshold float64, pairs [][2]int) [][2]int {
	if len(bodies) < collideGridMin {
		return collideBrute(bodies, threshold, pairs)
	}
	return c.collideGrid(bodies, threshold, pairs)
}

// collideBrute is the reference O(n²) scan, byte-for-byte the
// simulator's original collision loop.
func collideBrute(bodies []Body, threshold float64, pairs [][2]int) [][2]int {
	for i := 0; i < len(bodies); i++ {
		if bodies[i].Crashed {
			continue
		}
		for j := i + 1; j < len(bodies); j++ {
			if bodies[j].Crashed {
				continue
			}
			if bodies[i].Pos.Dist(bodies[j].Pos) <= threshold {
				bodies[i].Crashed = true
				bodies[j].Crashed = true
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	return pairs
}

// collideGrid is the spatial-hash path. It produces exactly the same
// crashes and pair list as collideBrute: for each i ascending it
// gathers candidates from the 3×3 neighbourhood of i's cell and picks
// the *minimum* qualifying j > i, which is precisely the j the brute
// scan's first-hit-then-break inner loop selects.
func (c *droneCollider) collideGrid(bodies []Body, threshold float64, pairs [][2]int) [][2]int {
	n := len(bodies)
	c.grid.Reset(n, threshold)

	// Insert every active body into its cell's chain. Crashes that
	// happen during the query pass below are filtered there, matching
	// the brute scan's live Crashed checks.
	for i := 0; i < n; i++ {
		if bodies[i].Crashed {
			continue
		}
		c.grid.Insert(i, bodies[i].Pos.X, bodies[i].Pos.Y)
	}

	for i := 0; i < n; i++ {
		if bodies[i].Crashed {
			continue
		}
		cx := c.grid.Cell(bodies[i].Pos.X)
		cy := c.grid.Cell(bodies[i].Pos.Y)
		minJ := -1
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for j := c.grid.Head(cx+dx, cy+dy); j != -1; j = c.grid.Next(j) {
					jj := int(j)
					if jj <= i || bodies[jj].Crashed {
						continue
					}
					if bodies[i].Pos.Dist(bodies[jj].Pos) <= threshold && (minJ == -1 || jj < minJ) {
						minJ = jj
					}
				}
			}
		}
		if minJ >= 0 {
			bodies[i].Crashed = true
			bodies[minJ].Crashed = true
			pairs = append(pairs, [2]int{i, minJ})
		}
	}
	return pairs
}
