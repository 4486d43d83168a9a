package flock

import (
	"math"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

var _ sim.BatchController = (*Controller)(nil)

// soaBounds are the padded squared-radius gates of the SoA pair loop,
// built once by New. Each bound is off by ±1e-9 relative, so e.g.
// d2 ≥ r²·(1+1e-9) proves the correctly rounded sqrt(d2) ≥ r — the
// padded root clears r by ~4.9e-10 relative ≈ 2e6 ulps, dwarfing the
// one rounding step in r*r and one in the padding. Inside a band the
// exact sqrt is computed and compared, so boundary pairs match the
// scalar path bit for bit.
//
// Invariants: d2 ≥ repHi proves dist ≥ RRep; d2 < frictLo proves
// dist < RFrict; d2 ≥ frictHi proves dist ≥ RFrict. They hold for any
// radius ordering, so a configuration with RRep > RFrict just routes
// every near pair through the exact-compare branches.
type soaBounds struct {
	repHi, frictLo, frictHi float64
}

func newSoaBounds(p Params) soaBounds {
	return soaBounds{
		repHi:   p.RRep * p.RRep * (1 + 1e-9),
		frictLo: p.RFrict * p.RFrict * (1 - 1e-9),
		frictHi: p.RFrict * p.RFrict * (1 + 1e-9),
	}
}

// soaAcc is one receiver's accumulators in a BatchCommands sweep: the
// repulsion sum, the friction sum and count, and the farthest
// neighbour so far (relative position, rounded distance and squared
// distance).
type soaAcc struct {
	rep, frictSum, farRel vec.Vec3
	farDist, farD2        float64
	frictCnt              int32
}

// soaScratch holds the per-receiver accumulators of one BatchCommands
// sweep. The caller owns it (see NewBatchScratch), so the pass
// allocates nothing in steady state.
type soaScratch struct {
	acc []soaAcc
}

// NewBatchScratch implements sim.BatchController.
func (c *Controller) NewBatchScratch(n int) any {
	return &soaScratch{acc: make([]soaAcc, n)}
}

// mirrorSub returns y.Sub(x) given d = x.Sub(y), bit for bit. For a
// nonzero component the rounded difference of the swapped operands is
// exactly the negation (round-to-nearest is sign-symmetric). A zero
// component is the one case negation gets wrong — fl(a-b) and fl(b-a)
// are then both +0 unless a and b are zeros of opposite sign — so it
// is recomputed from the operands directly.
func mirrorSub(d, x, y vec.Vec3) vec.Vec3 {
	var r vec.Vec3
	if d.X != 0 {
		r.X = -d.X
	} else {
		r.X = y.X - x.X
	}
	if d.Y != 0 {
		r.Y = -d.Y
	} else {
		r.Y = y.Y - x.Y
	}
	if d.Z != 0 {
		r.Z = -d.Z
	} else {
		r.Z = y.Z - x.Z
	}
	return r
}

// BatchCommands implements sim.BatchController: one tick of commands
// for the whole swarm, evaluated straight over the broadcast's flat
// [drone][axis] columns. It is bit-identical to calling Command per
// drone with PerfectBus neighbour rows (TestBatchCommandsMatchesCommand
// pins this), but restructures the work three ways:
//
//   - No State rows are materialised — neighbours are read out of the
//     shared columns.
//   - Each unordered pair is visited once, not once per endpoint. The
//     triangle sweep (outer i, inner j > i) hands receiver r its
//     contributions first from rows i < r in ascending i, then from
//     its own row in ascending j — exactly the ascending neighbour
//     order the scalar path accumulates in, so every floating-point
//     sum associates identically. Mirrored quantities for the second
//     endpoint go through mirrorSub and then the *same* operation
//     sequence the scalar path runs, so they match bit for bit,
//     signed zeros included.
//   - The per-pair sqrt and 1/dist division are gated on provable
//     squared-distance bounds (soaBounds) and computed only where a
//     term consumes the rounded distance.
//
// scratch must come from NewBatchScratch for at least b.N() drones.
// It returns the minimum squared distance between any two active
// drones' broadcast positions (+Inf when fewer than two are active) —
// a free by-product of the pair sweep that the Stepper uses to prove
// the collision scan empty.
func (c *Controller) BatchCommands(b *comms.Broadcast, w *sim.World, scratch any, cmds []vec.Vec3) float64 {
	bnd := &c.bnd
	n := b.N()
	sc := scratch.(*soaScratch)

	minPairD2 := math.Inf(1)
	// Reslicing every column to exactly n lets the compiler prove j < n
	// implies j in bounds and drop the per-pair bounds checks — a real
	// cost at ~1.2k pairs per swarm-tick.
	positions, velocities, act := b.Pos[:n], b.Vel[:n], b.Active[:n]
	acc := sc.acc[:n]
	clear(acc)
	for i := 0; i < n; i++ {
		if !act[i] {
			continue
		}
		pi, vi := positions[i], velocities[i]
		// Row i's accumulators live in a local for the whole inner loop
		// (they are only ever touched with first index i here) and are
		// stored back once; receiver j's stay in the array.
		ai := acc[i]
		for j := i + 1; j < n; j++ {
			if !act[j] {
				continue
			}
			aj := &acc[j]
			// rel is receiver i's view of j; receiver j's view is the
			// mirror. dist is materialised lazily — Norm() is
			// Sqrt(NormSq()), so Sqrt(d2) is the identical operation.
			rel := positions[j].Sub(pi)
			d2 := rel.NormSq()
			if d2 < minPairD2 {
				minPairD2 = d2
			}
			if d2 == 0 {
				continue // coincident fix: no defined direction
			}
			dist := -1.0
			if d2 < bnd.frictHi {
				frict := false
				if d2 < bnd.repHi {
					// Repulsion possible: the term consumes the
					// rounded distance, so take the sqrt and compare
					// exactly.
					dist = math.Sqrt(d2)
					if dist < c.p.RRep {
						gain := -c.p.PRep * (c.p.RRep - dist)
						inv := 1 / dist
						dir := rel.Scale(inv)
						ai.rep = ai.rep.Add(dir.Scale(gain))
						relJI := mirrorSub(rel, pi, positions[j])
						dirJI := relJI.Scale(inv)
						aj.rep = aj.rep.Add(dirJI.Scale(gain))
					}
					frict = dist < c.p.RFrict
				} else if d2 < bnd.frictLo {
					// Provably RRep ≤ dist < RFrict: friction fires,
					// no repulsion, and the comparison needs no sqrt.
					frict = true
				} else {
					// Friction boundary band: decide on exact bits.
					dist = math.Sqrt(d2)
					frict = dist < c.p.RFrict
				}
				if frict {
					dv := velocities[j].Sub(vi)
					ai.frictSum = ai.frictSum.Add(dv)
					ai.frictCnt++
					aj.frictSum = aj.frictSum.Add(mirrorSub(dv, vi, velocities[j]))
					aj.frictCnt++
				}
			}
			// Farthest-neighbour tracking for both endpoints. sqrt is
			// monotone, so d2 <= farD2 (the stored neighbour's squared
			// distance) proves dist <= farDist and the scalar path
			// would not have updated; only running-max candidates pay
			// the sqrt, and the final strict comparison is on the
			// rounded distances exactly as in Terms.
			if d2 > ai.farD2 {
				if dist < 0 {
					dist = math.Sqrt(d2)
				}
				if dist > ai.farDist {
					ai.farD2, ai.farDist, ai.farRel = d2, dist, rel
				}
			}
			if d2 > aj.farD2 {
				if dist < 0 {
					dist = math.Sqrt(d2)
				}
				if dist > aj.farDist {
					aj.farD2, aj.farDist = d2, dist
					aj.farRel = mirrorSub(rel, pi, positions[j])
				}
			}
		}
		acc[i] = ai
	}

	// Per-receiver tail: exactly the scalar Terms epilogue plus the
	// non-pairwise terms, in the scalar order.
	for i := 0; i < n; i++ {
		if !act[i] {
			cmds[i] = vec.Zero
			continue
		}
		cmds[i] = c.finishSoA(positions[i], velocities[i], w, &acc[i])
	}

	return minPairD2
}

// finishSoA assembles receiver i's command from the sweep accumulators
// — the migration, attraction, friction, obstacle and altitude tail of
// Terms, operation for operation — and adds the terms up in Sum's
// order without building a Terms value. One gate is the kernel's own:
// an obstacle that Obstacle.SurfaceBeyond proves at least RShill away
// is skipped before SurfaceDistance's square root, which is exactly
// the obstacles Terms skips after taking it.
func (c *Controller) finishSoA(pos, vel vec.Vec3, w *sim.World, a *soaAcc) vec.Vec3 {
	var migration, attraction, friction, obstacle vec.Vec3

	// Unit is Scale(1/Norm) for a nonzero norm, so the gate's norm is
	// reused. A zero norm passes the gate only if DestRadius < 0; Unit
	// would return Zero, so migration stays zero.
	toDest := w.Destination.Sub(pos).Horizontal()
	if nd := toDest.Norm(); nd > w.DestRadius/2 && nd != 0 {
		migration = toDest.Scale(1 / nd).Scale(c.p.VFlock)
	}

	if a.farDist > c.p.RAtt {
		farDir := a.farRel.Scale(1 / a.farDist)
		attraction = c.vAttMax.Clamp(farDir.Scale(c.p.PAtt * (a.farDist - c.p.RAtt)))
	}
	if a.frictCnt > 0 {
		friction = a.frictSum.Scale(c.p.CFrict / float64(a.frictCnt))
	}

	for _, o := range w.Obstacles {
		if o.SurfaceBeyond(pos, c.p.RShill) {
			continue
		}
		s := o.SurfaceDistance(pos)
		if s >= c.p.RShill {
			continue
		}
		outward := o.OutwardNormal(pos)
		if outward == vec.Zero {
			outward = migration.Neg().Unit()
		}
		gain := c.p.PShill * (1 - s/c.p.RShill)
		if s < 0 {
			gain = c.p.PShill
		}
		shillVel := outward.Scale(c.p.VShill)
		obstacle = obstacle.Add(shillVel.Sub(vel).Scale(gain))
	}

	altitude := vec.New(0, 0, c.p.KAlt*(w.Destination.Z-pos.Z))

	return c.vMax.Clamp(migration.
		Add(a.rep).
		Add(attraction).
		Add(friction).
		Add(obstacle).
		Add(altitude))
}
