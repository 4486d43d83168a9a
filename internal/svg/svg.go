// Package svg implements the paper's Swarm Vulnerability Graph (§IV-B):
// a directed weighted graph over swarm members in which an edge e_ij
// means "drone i is maliciously influenced by drone j" — spoofing j's
// GPS moves i closer to the obstacle. PageRank centrality on the SVG
// scores potential targets; on the transposed SVG it scores potential
// victims. The package also provides the seed scheduling that orders
// target–victim pairs for fuzzing.
//
// The SVG is built from the clean run's recorded state at t_clo, the
// time of minimum mean inter-drone distance, where mutual influence is
// strongest; the package derives t_clo from the recorded positions.
// Malicious influence is detected exactly as the paper describes:
// re-evaluate drone i's flocking command with drone j's broadcast
// position displaced by the spoofing offset, and test whether the
// command change points toward the obstacle.
package svg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// Snapshot is the swarm state at one instant of the clean run.
type Snapshot struct {
	// Time is the mission time of the snapshot.
	Time float64
	// Positions and Velocities hold the true state of every drone.
	Positions  []vec.Vec3
	Velocities []vec.Vec3
}

// ErrNoTrajectory is returned when the clean run was executed without
// trajectory recording.
var ErrNoTrajectory = errors.New("svg: clean run has no recorded trajectory")

// ClosestSnapshot extracts the snapshot at t_clo — the first sample
// with the minimum mean inter-drone distance — from a recorded
// trajectory. The mean is taken over every drone, so the trajectory
// must come from a run without obstacle collisions: a crashed drone's
// frozen position would count as a swarm member. SwarmFuzz rejects
// unsafe missions before it builds an SVG.
func ClosestSnapshot(traj *sim.Trajectory) (Snapshot, error) {
	if traj == nil || len(traj.Times) == 0 {
		return Snapshot{}, ErrNoTrajectory
	}
	best, bestVal := -1, 0.0
	for s, ps := range traj.Positions {
		if v := meanPairDist(ps); best == -1 || v < bestVal {
			best, bestVal = s, v
		}
	}
	return snapshotAt(traj, best), nil
}

// ClosestSnapshotNearObstacle extracts the t_clo snapshot restricted
// to the obstacle-interaction phase: samples where the swarm centroid
// is within the given along-track window of the obstacle. The paper
// picks t_clo globally because in SwarmLab the swarm is tightest
// during the obstacle squeeze; our dynamics are tightest at arrival,
// so the restriction recovers the paper's intent — probe influence
// where the obstacle geometry is relevant (see DESIGN.md). If no
// sample falls in the window, the global t_clo is used. Like
// ClosestSnapshot, it requires a trajectory without obstacle
// collisions.
func ClosestSnapshotNearObstacle(traj *sim.Trajectory, m *sim.Mission, window float64) (Snapshot, error) {
	if traj == nil || len(traj.Times) == 0 {
		return Snapshot{}, ErrNoTrajectory
	}
	ob := m.Obstacle()
	best, bestVal := -1, math.Inf(1)
	for s, ps := range traj.Positions {
		along := vec.Mean(ps).Sub(ob.Center).Dot(m.Axis)
		if math.Abs(along) > window {
			continue
		}
		if v := meanPairDist(ps); v < bestVal {
			best, bestVal = s, v
		}
	}
	if best < 0 {
		return ClosestSnapshot(traj)
	}
	return snapshotAt(traj, best), nil
}

// snapshotAt returns sample s of traj.
func snapshotAt(traj *sim.Trajectory, s int) Snapshot {
	return Snapshot{
		Time:       traj.Times[s],
		Positions:  traj.Positions[s],
		Velocities: traj.Velocities[s],
	}
}

// meanPairDist is the mean distance over all drone pairs i < j, summed
// in that order; 0 for fewer than two drones.
func meanPairDist(ps []vec.Vec3) float64 {
	sum, cnt := 0.0, 0
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			sum += ps[i].Dist(ps[j])
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// Config parameterises SVG construction.
type Config struct {
	// SpoofDistance is the spoofing deviation d used to probe
	// influence (the same d SwarmFuzz receives as input).
	SpoofDistance float64
	// InfluenceThreshold is the minimum inward command change (m/s)
	// for an edge to be created; it filters numerical noise.
	InfluenceThreshold float64
	// PageRank parameterises the centrality computation.
	PageRank graph.PageRankOptions
}

// Validate returns an error describing the first invalid field.
func (c Config) Validate() error {
	if c.SpoofDistance <= 0 {
		return fmt.Errorf("svg: spoof distance %v must be positive", c.SpoofDistance)
	}
	if c.InfluenceThreshold < 0 {
		return fmt.Errorf("svg: influence threshold %v must be non-negative", c.InfluenceThreshold)
	}
	return c.PageRank.Validate()
}

// Build constructs the SVG for one spoofing direction θ. ctrl is the
// swarm control algorithm under test, w the mission world, axis the
// migration axis the spoof offset is lateral to, and snap the clean
// run's snapshot at t_clo.
//
// For every ordered pair (i, j), i ≠ j: drone i's command is evaluated
// once with the true broadcast states and once with drone j's position
// displaced by the spoofing offset. If the displacement turns i's
// command toward the obstacle (the distance between i and the obstacle
// would decrease), edge e_ij is created with weight
// d/√(d²+r_ij²) — decreasing in the inter-drone distance r_ij.
func Build(ctrl sim.Controller, w *sim.World, axis vec.Vec3, snap Snapshot, dir gps.Direction, cfg Config) (*graph.Digraph, error) {
	if ctrl == nil {
		return nil, errors.New("svg: nil controller")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !dir.Valid() {
		return nil, fmt.Errorf("svg: invalid direction %d", int(dir))
	}
	n := len(snap.Positions)
	if n != len(snap.Velocities) {
		return nil, fmt.Errorf("svg: %d positions but %d velocities", n, len(snap.Velocities))
	}

	offset := axis.PerpXY().Scale(float64(dir) * cfg.SpoofDistance)
	if offset == vec.Zero {
		return nil, fmt.Errorf("svg: migration axis %v has no horizontal component", axis)
	}

	g := graph.NewDigraph(n)
	states := make([]comms.State, n)
	for i := range states {
		states[i] = comms.State{
			ID:       i,
			Position: snap.Positions[i],
			Velocity: snap.Velocities[i],
			Time:     snap.Time,
		}
	}

	neighbors := make([]comms.State, 0, n-1)
	for i := 0; i < n; i++ {
		// The inward direction for drone i: toward the nearest
		// obstacle. Drones with no obstacle in the world cannot be
		// pushed "toward" anything; Build requires one.
		oi, _ := w.NearestObstacle(snap.Positions[i])
		if oi < 0 {
			return nil, errors.New("svg: world has no obstacles")
		}
		inward := w.Obstacles[oi].OutwardNormal(snap.Positions[i]).Neg()

		perception := sim.Perception{
			ID:       i,
			GPS:      gps.Reading{Position: snap.Positions[i], Time: snap.Time},
			Velocity: snap.Velocities[i],
			Time:     snap.Time,
		}

		baseNeighbors := neighbors[:0]
		for k := 0; k < n; k++ {
			if k != i {
				baseNeighbors = append(baseNeighbors, states[k])
			}
		}
		base := ctrl.Command(perception, baseNeighbors, w)

		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			// Displace drone j's broadcast position by the spoofing
			// offset and re-evaluate drone i's command.
			probe := make([]comms.State, 0, n-1)
			for k := 0; k < n; k++ {
				if k == i {
					continue
				}
				s := states[k]
				if k == j {
					s.Position = s.Position.Add(offset)
				}
				probe = append(probe, s)
			}
			spoofed := ctrl.Command(perception, probe, w)

			influence := spoofed.Sub(base).Dot(inward)
			if influence <= cfg.InfluenceThreshold {
				continue
			}
			rij := snap.Positions[i].Dist(snap.Positions[j])
			weight := cfg.SpoofDistance / math.Sqrt(cfg.SpoofDistance*cfg.SpoofDistance+rij*rij)
			if err := g.SetEdge(i, j, weight); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Seed is one fuzzing seed ⟨T−V, θ⟩ with its scheduling scores.
type Seed struct {
	// Target is the drone whose GPS will be spoofed.
	Target int
	// Victim is the drone expected to collide with the obstacle.
	Victim int
	// Direction is the spoofing direction θ.
	Direction gps.Direction
	// Influence is the summative influence I(θ) of the pair: the
	// target's PageRank in the SVG plus the victim's PageRank in the
	// transposed SVG.
	Influence float64
	// VDO is the victim's closest distance to the obstacle in the
	// clean run.
	VDO float64
}

// String implements fmt.Stringer.
func (s Seed) String() string {
	return fmt.Sprintf("seed{T=%d V=%d θ=%s I=%.3f VDO=%.2fm}",
		s.Target, s.Victim, s.Direction, s.Influence, s.VDO)
}

// ScheduleK orders fuzzing seeds as the paper prescribes: victims are
// sorted by ascending VDO; for each victim and direction, the target
// is the drone with the highest summative influence among those with a
// malicious-influence path to the victim in that direction's SVG.
// Seeds are ordered by ascending VDO, ties broken by descending
// influence.
//
// The paper schedules one target per (victim, direction) that has any
// candidate; k > 1 schedules up to k, ranked by summative influence,
// which widens coverage when the one-instant SVG approximation ranks
// the true best target second (DESIGN.md §3.0).
//
// svgs maps each direction to its SVG; minClearance is the clean run's
// per-drone minimum obstacle clearance.
func ScheduleK(svgs map[gps.Direction]*graph.Digraph, minClearance []float64, prOpts graph.PageRankOptions, k int) ([]Seed, error) {
	if k < 1 {
		return nil, fmt.Errorf("svg: targets per victim %d must be >= 1", k)
	}
	if len(svgs) == 0 {
		return nil, errors.New("svg: no graphs to schedule from")
	}
	n := len(minClearance)

	type dirScores struct {
		dir         gps.Direction
		g           *graph.Digraph
		targetScore []float64
		victimScore []float64
	}
	var scored []dirScores
	// Deterministic direction order.
	for _, dir := range []gps.Direction{gps.Right, gps.Left} {
		g, ok := svgs[dir]
		if !ok {
			continue
		}
		if g.N() != n {
			return nil, fmt.Errorf("svg: graph for %s has %d nodes, want %d", dir, g.N(), n)
		}
		ts, err := graph.PageRank(g, prOpts)
		if err != nil {
			return nil, err
		}
		vs, err := graph.PageRank(g.Transpose(), prOpts)
		if err != nil {
			return nil, err
		}
		scored = append(scored, dirScores{dir: dir, g: g, targetScore: ts, victimScore: vs})
	}

	var seeds []Seed
	for _, ds := range scored {
		for v := 0; v < n; v++ {
			// Rank candidate targets: those with a malicious-influence
			// path to the victim first (edge v->t means "v is
			// influenced by t", so a path from v to t means t
			// transitively influences v), then by summative influence.
			// Victims with no in-graph influencer still get seeds with
			// the most influential targets overall: the SVG is a
			// one-instant approximation and influence can materialise
			// later in the mission.
			type candidate struct {
				target    int
				influence float64
				hasPath   bool
			}
			cands := make([]candidate, 0, n-1)
			for t := 0; t < n; t++ {
				if t == v {
					continue
				}
				cands = append(cands, candidate{
					target:    t,
					influence: ds.targetScore[t] + ds.victimScore[v],
					hasPath:   ds.g.HasPath(v, t),
				})
			}
			sort.SliceStable(cands, func(a, b int) bool {
				if cands[a].hasPath != cands[b].hasPath {
					return cands[a].hasPath
				}
				return cands[a].influence > cands[b].influence
			})
			for i := 0; i < k && i < len(cands); i++ {
				seeds = append(seeds, Seed{
					Target:    cands[i].target,
					Victim:    v,
					Direction: ds.dir,
					Influence: cands[i].influence,
					VDO:       minClearance[v],
				})
			}
		}
	}

	// The final order is fully deterministic: VDO, then influence, then
	// explicit tie-breakers (direction Right before Left, then victim,
	// then target). Equal-score seeds are common — e.g. empty SVGs give
	// every drone the same uniform PageRank — and downstream consumers
	// (the forensics report, the campaign tables) sort by score and
	// must observe a stable order.
	sort.SliceStable(seeds, func(a, b int) bool {
		sa, sb := seeds[a], seeds[b]
		switch {
		case sa.VDO != sb.VDO:
			return sa.VDO < sb.VDO
		case sa.Influence != sb.Influence:
			return sa.Influence > sb.Influence
		case sa.Direction != sb.Direction:
			return sa.Direction > sb.Direction
		case sa.Victim != sb.Victim:
			return sa.Victim < sb.Victim
		default:
			return sa.Target < sb.Target
		}
	})
	return seeds, nil
}
