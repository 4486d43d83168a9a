package flock

import (
	"math"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

var _ sim.BatchController = (*Controller)(nil)

// soaBounds are the padded squared-radius gates of the kernel, built
// once by New through vec.PaddedSq. Each bound is off by ±1e-9
// relative, so e.g. d2 ≥ r²·(1+1e-9) proves the correctly rounded
// sqrt(d2) ≥ r — the padded root clears r by ~4.9e-10 relative ≈ 2e6
// ulps, dwarfing the one rounding step in r*r and one in the padding.
// Inside a band the exact sqrt is computed and compared, so boundary
// pairs match the scalar path bit for bit. A radius outside
// PaddedSq's range (2^±500, where r² would leave the normal floats)
// gets a NaN bound, and the loop tests every upper bound as
// !(d2 >= hi), so a NaN sends the pair to the exact branches.
//
// Invariants: d2 ≥ repHi proves dist ≥ RRep; d2 < frictLo proves
// dist < RFrict; d2 ≥ frictHi proves dist ≥ RFrict; d2 ≥ nearHi, the
// larger of repHi and frictHi (NaN if either is), proves neither term
// fires; d2 ≤ attLo proves dist ≤ RAtt. They hold for any radius
// ordering, so a configuration with RRep > RFrict just routes its
// near pairs through the exact-compare branches.
type soaBounds struct {
	nearHi, repHi, frictLo, frictHi, attLo float64
}

func newSoaBounds(p Params) soaBounds {
	b := soaBounds{
		repHi:   vec.PaddedSq(p.RRep, 1e-9),
		frictLo: vec.PaddedSq(p.RFrict, -1e-9),
		frictHi: vec.PaddedSq(p.RFrict, 1e-9),
		attLo:   vec.PaddedSq(p.RAtt, -1e-9),
	}
	b.nearHi = math.Max(b.repHi, b.frictHi)
	return b
}

// soaAcc is one receiver's accumulators in a BatchCommands sweep: the
// repulsion sum, the friction sum and count, and the farthest
// neighbour so far. The farthest neighbour is kept as its relative
// position and squared distance farD2 plus the padded gate farHi; its
// rounded distance, Terms' farDist, is sqrt(farD2), which finishSoA
// takes once. The zero value is the start of a sweep: farD2 = 0 is
// Terms' farDist := 0.0.
type soaAcc struct {
	rep, frictSum, farRel vec.Vec3
	farD2, farHi          float64
	frictCnt              int32
}

// farther reports whether a neighbour at squared distance d2 (never 0:
// the sweep skips coincident fixes) replaces the farthest one, exactly
// when Terms' dist > farDist would hold on the rounded roots:
//
//   - d2 ≤ farD2, or d2 NaN: no. sqrt is monotone, and a NaN fails
//     every comparison here as its NaN root does in Terms. farD2 = +Inf
//     lands here too, as Terms' Inf > Inf is false.
//   - d2 > farD2 and d2 ≥ farHi = fl(farD2·(1+1e-9)): yes, without a
//     root. For normal farD2 the product's rounding costs 2^-53
//     relative. For subnormal farD2 it costs at most 2^-1075 absolute,
//     at most half the pad when the pad is at least one subnormal step
//     2^-1074; when it is less, d2 > farD2 alone gives d2 ≥ farD2 +
//     2^-1074 > farD2·(1+1e-9), whatever farHi rounded to. Either way
//     d2 ≥ farD2·(1+5e-10), so the exact roots differ by over 2.4e-10
//     relative, about 10⁶ ulps, which the two correctly rounded roots
//     cannot close. farD2 = 0 gives farHi = 0, and every positive d2,
//     subnormal included, has a positive root. d2 = +Inf passes with a
//     root of +Inf over a finite one; a farHi that overflowed to +Inf
//     only sends finite d2 to the band.
//   - farD2 < d2 < farHi: the band. Compare the two rounded roots, as
//     Terms does.
func (a *soaAcc) farther(d2 float64) bool {
	return d2 > a.farD2 && (d2 >= a.farHi || math.Sqrt(d2) > math.Sqrt(a.farD2))
}

// setFar records the neighbour at squared distance d2 and relative
// position rel as the farthest.
func (a *soaAcc) setFar(d2 float64, rel vec.Vec3) {
	a.farD2, a.farHi, a.farRel = d2, d2*(1+1e-9), rel
}

// soaScratch holds the per-receiver accumulators of one BatchCommands
// sweep and the tail's per-run gates: per obstacle of the run's world,
// the shill gate SurfaceGate(RShill), and per neighbour count k, the
// friction gain CFrict/k. The caller owns it (see NewBatchScratch), so
// the pass allocates nothing in steady state.
type soaScratch struct {
	acc       []soaAcc
	shill     []float64
	frictGain []float64
}

// NewBatchScratch implements sim.BatchController.
func (c *Controller) NewBatchScratch(n int, w *sim.World) any {
	sc := &soaScratch{
		acc:       make([]soaAcc, n),
		shill:     make([]float64, len(w.Obstacles)),
		frictGain: make([]float64, n),
	}
	for k, o := range w.Obstacles {
		sc.shill[k] = o.SurfaceGate(c.p.RShill)
	}
	// A receiver has at most n−1 neighbours in range; index 0 is unused.
	for k := 1; k < n; k++ {
		sc.frictGain[k] = c.p.CFrict / float64(k)
	}
	return sc
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
//     sum associates identically. The second endpoint j's differences
//     are taken directly, pi.Sub(positions[j]) and
//     vi.Sub(velocities[j]) — the very operations Terms runs for
//     receiver j — so they match bit for bit, signed zeros included.
//     The squared distance is shared: the two position differences
//     are negations of each other (round-to-nearest is
//     sign-symmetric), so their squares agree.
//   - The per-pair sqrt and 1/dist division are gated on provable
//     squared-distance bounds (soaBounds) and computed only where a
//     term consumes the rounded distance. The farthest neighbour is
//     tracked on squared distances too (soaAcc.farther), so a receiver
//     takes its farthest-neighbour root at most once, in finishSoA.
//
// scratch must come from NewBatchScratch for at least b.N() drones and
// the world w.
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
		// ai and aj point into the scratch, so nothing is copied in or
		// out; j > i, so they never alias.
		ai := &acc[i]
		for j := i + 1; j < n; j++ {
			if !act[j] {
				continue
			}
			aj := &acc[j]
			// rel is receiver i's view of j. dist is materialised
			// lazily — Norm() is Sqrt(NormSq()), so Sqrt(d2) is the
			// identical operation.
			rel := positions[j].Sub(pi)
			d2 := rel.NormSq()
			if d2 < minPairD2 {
				minPairD2 = d2
			}
			if d2 == 0 {
				continue // coincident fix: no defined direction
			}
			if !(d2 >= bnd.nearHi) {
				frict := false
				if !(d2 >= bnd.repHi) {
					// Repulsion possible: the term consumes the
					// rounded distance, so take the sqrt and compare
					// exactly.
					dist := math.Sqrt(d2)
					if dist < c.p.RRep {
						gain := -c.p.PRep * (c.p.RRep - dist)
						inv := 1 / dist
						dir := rel.Scale(inv)
						ai.rep = ai.rep.Add(dir.Scale(gain))
						dirJI := pi.Sub(positions[j]).Scale(inv)
						aj.rep = aj.rep.Add(dirJI.Scale(gain))
					}
					frict = dist < c.p.RFrict
				} else if d2 < bnd.frictLo {
					// Provably RRep ≤ dist < RFrict: friction fires,
					// no repulsion, and the comparison needs no sqrt.
					frict = true
				} else {
					// Friction boundary band: decide on exact bits.
					frict = math.Sqrt(d2) < c.p.RFrict
				}
				if frict {
					ai.frictSum = ai.frictSum.Add(velocities[j].Sub(vi))
					ai.frictCnt++
					aj.frictSum = aj.frictSum.Add(vi.Sub(velocities[j]))
					aj.frictCnt++
				}
			}
			if ai.farther(d2) {
				ai.setFar(d2, rel)
			}
			if aj.farther(d2) {
				aj.setFar(d2, pi.Sub(positions[j]))
			}
		}
	}

	// Per-receiver tail: exactly the scalar Terms epilogue plus the
	// non-pairwise terms, in the scalar order.
	for i := 0; i < n; i++ {
		if !act[i] {
			cmds[i] = vec.Zero
			continue
		}
		cmds[i] = c.finishSoA(positions[i], velocities[i], w, &acc[i], sc)
	}

	return minPairD2
}

// finishSoA assembles receiver i's command from the sweep accumulators
// — the migration, attraction, friction, obstacle and altitude tail of
// Terms, operation for operation — and adds the terms up in Sum's
// order without building a Terms value. Its gates and gains are built
// once: farD2 ≤ attLo proves farDist ≤ RAtt, so a receiver with no
// neighbour beyond RAtt skips the farthest neighbour's root; an
// obstacle whose shill gate proves it at least RShill away is skipped
// before SurfaceDistance's square root, which is exactly the obstacles
// Terms skips after taking it; and the friction gain CFrict/k comes
// from sc's table, the very quotient Terms divides out.
func (c *Controller) finishSoA(pos, vel vec.Vec3, w *sim.World, a *soaAcc, sc *soaScratch) vec.Vec3 {
	var migration, attraction, friction, obstacle vec.Vec3

	// Unit is Scale(1/Norm) for a nonzero norm, so the gate's norm is
	// reused. A zero norm passes the gate only if DestRadius < 0; Unit
	// would return Zero, so migration stays zero.
	toDest := w.Destination.Sub(pos).Horizontal()
	if nd := toDest.Norm(); nd > w.DestRadius/2 && nd != 0 {
		migration = toDest.Scale(1 / nd).Scale(c.p.VFlock)
	}

	if !(a.farD2 <= c.bnd.attLo) {
		if farDist := math.Sqrt(a.farD2); farDist > c.p.RAtt {
			farDir := a.farRel.Scale(1 / farDist)
			attraction = c.vAttMax.Clamp(farDir.Scale(c.p.PAtt * (farDist - c.p.RAtt)))
		}
	}
	if a.frictCnt > 0 {
		friction = a.frictSum.Scale(sc.frictGain[a.frictCnt])
	}

	for k, o := range w.Obstacles {
		if o.AxisDistSq(pos) >= sc.shill[k] {
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
