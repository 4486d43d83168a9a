package svg

import (
	"math"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// figure4World reproduces the paper's Fig. 4 scenario: an obstacle
// directly ahead of two drones flying north side by side.
func figure4World() *sim.World {
	return &sim.World{
		Obstacles:   []sim.Obstacle{{Center: vec.New(0, 60, 0), Radius: 4}},
		Destination: vec.New(0, 200, 10),
		DestRadius:  8,
	}
}

func testSnapshot(positions ...vec.Vec3) Snapshot {
	vels := make([]vec.Vec3, len(positions))
	for i := range vels {
		vels[i] = vec.New(0, 2, 0)
	}
	return Snapshot{Time: 30, Positions: positions, Velocities: vels}
}

var northAxis = vec.New(0, 1, 0)

func TestClosestSnapshot(t *testing.T) {
	// Two drones on the x axis, 10, 4 and 6 m apart at samples 0-2.
	traj := &sim.Trajectory{
		Times: []float64{0, 1, 2},
		Positions: [][]vec.Vec3{
			{vec.New(0, 0, 0), vec.New(10, 0, 0)},
			{vec.New(1, 0, 0), vec.New(5, 0, 0)},
			{vec.New(2, 0, 0), vec.New(8, 0, 0)},
		},
		Velocities: [][]vec.Vec3{
			{vec.Zero, vec.Zero}, {vec.Zero, vec.Zero}, {vec.Zero, vec.Zero},
		},
	}
	snap, err := ClosestSnapshot(traj)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Time != 1 {
		t.Errorf("t_clo = %v, want 1", snap.Time)
	}
	if snap.Positions[0] != vec.New(1, 0, 0) {
		t.Errorf("snapshot positions wrong: %v", snap.Positions)
	}
}

func TestClosestSnapshotNil(t *testing.T) {
	if _, err := ClosestSnapshot(nil); err == nil {
		t.Error("nil trajectory accepted")
	}
	if _, err := ClosestSnapshot(&sim.Trajectory{}); err == nil {
		t.Error("empty trajectory accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := defaultConfig(10).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := defaultConfig(0).Validate(); err == nil {
		t.Error("zero spoof distance accepted")
	}
	c := defaultConfig(10)
	c.InfluenceThreshold = -1
	if err := c.Validate(); err == nil {
		t.Error("negative threshold accepted")
	}
	c = defaultConfig(10)
	c.PageRank.Damping = 2
	if err := c.Validate(); err == nil {
		t.Error("bad pagerank options accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	w := figure4World()
	snap := testSnapshot(vec.New(-3, 30, 10), vec.New(3, 30, 10))

	if _, err := Build(nil, w, northAxis, snap, gps.Right, defaultConfig(10)); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := Build(ctrl, w, northAxis, snap, gps.Direction(0), defaultConfig(10)); err == nil {
		t.Error("invalid direction accepted")
	}
	if _, err := Build(ctrl, w, vec.New(0, 0, 1), snap, gps.Right, defaultConfig(10)); err == nil {
		t.Error("vertical axis accepted")
	}
	badSnap := snap
	badSnap.Velocities = badSnap.Velocities[:1]
	if _, err := Build(ctrl, w, northAxis, badSnap, gps.Right, defaultConfig(10)); err == nil {
		t.Error("mismatched snapshot accepted")
	}
	noObstacles := &sim.World{Destination: w.Destination, DestRadius: 8}
	if _, err := Build(ctrl, noObstacles, northAxis, snap, gps.Right, defaultConfig(10)); err == nil {
		t.Error("world without obstacles accepted")
	}
}

func TestBuildProducesGraph(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	w := figure4World()
	// Two drones abreast south of the obstacle, inside interaction
	// range of each other.
	snap := testSnapshot(vec.New(-4, 48, 10), vec.New(4, 48, 10))
	g, err := Build(ctrl, w, northAxis, snap, gps.Right, defaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("graph has %d nodes, want 2", g.N())
	}
	// At least one drone must be maliciously influenceable in this
	// squeezed scenario (Fig. 4 creates e_12 for right spoofing).
	if g.NumEdges() == 0 {
		t.Error("no edges found in the Fig. 4 scenario")
	}
}

func TestBuildEdgeMeansInwardInfluence(t *testing.T) {
	// Manually verify one edge: recompute the command displacement for
	// an edge reported by Build and check it points inward.
	p := flock.DefaultParams()
	ctrl := flockController(t, p)
	w := figure4World()
	snap := testSnapshot(vec.New(-4, 48, 10), vec.New(4, 48, 10))
	cfg := defaultConfig(10)
	g, err := Build(ctrl, w, northAxis, snap, gps.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	offset := northAxis.PerpXY().Scale(float64(gps.Right) * cfg.SpoofDistance)
	checked := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if i == j || !hasEdge(g, i, j) {
				continue
			}
			checked++
			perc := sim.Perception{
				ID:       i,
				GPS:      gps.Reading{Position: snap.Positions[i], Time: snap.Time},
				Velocity: snap.Velocities[i],
				Time:     snap.Time,
			}
			baseNb := []comms.State{{ID: j, Position: snap.Positions[j], Velocity: snap.Velocities[j]}}
			spoofNb := []comms.State{{ID: j, Position: snap.Positions[j].Add(offset), Velocity: snap.Velocities[j]}}
			base := ctrl.Command(perc, baseNb, w)
			spoofed := ctrl.Command(perc, spoofNb, w)
			inward := w.Obstacles[0].OutwardNormal(snap.Positions[i]).Neg()
			if infl := spoofed.Sub(base).Dot(inward); infl <= cfg.InfluenceThreshold {
				t.Errorf("edge (%d,%d) exists but influence %v below threshold", i, j, infl)
			}
		}
	}
	if checked == 0 {
		t.Skip("no edges to verify in this configuration")
	}
}

func TestBuildWeightsDecreaseWithDistance(t *testing.T) {
	cfg := defaultConfig(10)
	w1 := cfg.SpoofDistance / math.Sqrt(cfg.SpoofDistance*cfg.SpoofDistance+5*5)
	w2 := cfg.SpoofDistance / math.Sqrt(cfg.SpoofDistance*cfg.SpoofDistance+20*20)
	if w1 <= w2 {
		t.Errorf("weight formula not decreasing: w(5m)=%v w(20m)=%v", w1, w2)
	}
	if w1 <= 0 || w1 >= 1 {
		t.Errorf("weight %v outside (0,1)", w1)
	}
}

func TestBuildDirectionMatters(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	w := figure4World()
	// Asymmetric arrangement: drone 1 east of drone 0, obstacle dead
	// ahead of both.
	snap := testSnapshot(vec.New(-6, 48, 10), vec.New(2, 48, 10))
	right, err := Build(ctrl, w, northAxis, snap, gps.Right, defaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	left, err := Build(ctrl, w, northAxis, snap, gps.Left, defaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if hasEdge(right, i, j) != hasEdge(left, i, j) {
				same = false
			}
		}
	}
	if same && right.NumEdges() > 0 {
		t.Log("left and right spoofing produced identical graphs (possible but unusual)")
	}
}

func TestScheduleOrdering(t *testing.T) {
	// Hand-built SVG over 3 drones: 0 influenced by 1 and 2; 1
	// influenced by 2.
	g := graph.NewDigraph(3)
	if err := g.SetEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(0, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(1, 2, 0.6); err != nil {
		t.Fatal(err)
	}
	minClear := []float64{2.0, 5.0, 9.0} // drone 0 closest to obstacle
	seeds, err := ScheduleK(map[gps.Direction]*graph.Digraph{gps.Right: g}, minClear, graph.DefaultPageRankOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds scheduled")
	}
	// Victims must be in ascending VDO order.
	for i := 1; i < len(seeds); i++ {
		if seeds[i].VDO < seeds[i-1].VDO {
			t.Errorf("seeds not VDO-ordered: %v after %v", seeds[i], seeds[i-1])
		}
	}
	// First victim must be drone 0, and its target must influence it.
	if seeds[0].Victim != 0 {
		t.Errorf("first victim %d, want 0 (lowest VDO)", seeds[0].Victim)
	}
	if seeds[0].Target == seeds[0].Victim {
		t.Error("target equals victim")
	}
	if !g.HasPath(seeds[0].Victim, seeds[0].Target) {
		t.Error("scheduled target has no influence path to victim")
	}
}

func TestScheduleTargetIsMostInfluential(t *testing.T) {
	// Drone 2 influences both 0 and 1; drone 1 influences only 0.
	// For victim 0 the most influential target should be 2.
	g := graph.NewDigraph(3)
	if err := g.SetEdge(0, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(1, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	seeds, err := ScheduleK(map[gps.Direction]*graph.Digraph{gps.Left: g},
		[]float64{1, 2, 3}, graph.DefaultPageRankOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 || seeds[0].Victim != 0 {
		t.Fatalf("unexpected seeds: %v", seeds)
	}
	if seeds[0].Target != 2 {
		t.Errorf("target for victim 0 = %d, want 2 (most influential)", seeds[0].Target)
	}
}

func TestScheduleFallbackForUninfluencedVictims(t *testing.T) {
	// Drone 2 has no influencer in the SVG: it still gets a seed with
	// the most influential target overall (the SVG is a one-instant
	// approximation), and never itself.
	g := graph.NewDigraph(3)
	if err := g.SetEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	seeds, err := ScheduleK(map[gps.Direction]*graph.Digraph{gps.Right: g},
		[]float64{3, 2, 1}, graph.DefaultPageRankOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3 (one per victim): %v", len(seeds), seeds)
	}
	victims := map[int]Seed{}
	for _, s := range seeds {
		if s.Target == s.Victim {
			t.Errorf("seed targets its own victim: %v", s)
		}
		victims[s.Victim] = s
	}
	// Drone 0's seed follows the edge; drone 2's falls back to the
	// globally most influential target (drone 1, the only one with
	// incoming influence mass).
	if s, ok := victims[0]; !ok || s.Target != 1 {
		t.Errorf("victim 0 seed = %+v, want target 1", victims[0])
	}
	if s, ok := victims[2]; !ok || s.Target != 1 {
		t.Errorf("victim 2 fallback seed = %+v, want target 1", victims[2])
	}
}

func TestScheduleBothDirections(t *testing.T) {
	gr := graph.NewDigraph(2)
	if err := gr.SetEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	gl := graph.NewDigraph(2)
	if err := gl.SetEdge(1, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	seeds, err := ScheduleK(map[gps.Direction]*graph.Digraph{gps.Right: gr, gps.Left: gl},
		[]float64{1, 2}, graph.DefaultPageRankOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// One seed per (victim, direction): 2 victims × 2 directions.
	if len(seeds) != 4 {
		t.Fatalf("got %d seeds, want 4 (victim × direction)", len(seeds))
	}
	dirs := map[gps.Direction]bool{}
	for _, s := range seeds {
		dirs[s.Direction] = true
	}
	if !dirs[gps.Right] || !dirs[gps.Left] {
		t.Errorf("missing a direction in seeds: %v", seeds)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := ScheduleK(nil, []float64{1}, graph.DefaultPageRankOptions(), 1); err == nil {
		t.Error("empty graph map accepted")
	}
	g := graph.NewDigraph(3)
	if _, err := ScheduleK(map[gps.Direction]*graph.Digraph{gps.Right: g},
		[]float64{1, 2}, graph.DefaultPageRankOptions(), 1); err == nil {
		t.Error("node-count mismatch accepted")
	}
}

func TestSeedString(t *testing.T) {
	s := Seed{Target: 1, Victim: 2, Direction: gps.Left, Influence: 0.5, VDO: 3.25}
	if got := s.String(); got != "seed{T=1 V=2 θ=left I=0.500 VDO=3.25m}" {
		t.Errorf("String = %q", got)
	}
}

// hasEdge reports whether g has the edge u->v.
func hasEdge(g *graph.Digraph, u, v int) bool {
	has := false
	g.OutNeighbors(u, func(w int, _ float64) { has = has || w == v })
	return has
}

// defaultConfig is the configuration SwarmFuzz builds its SVGs with.
func defaultConfig(spoofDistance float64) Config {
	return Config{
		SpoofDistance:      spoofDistance,
		InfluenceThreshold: 0.05,
		PageRank:           graph.DefaultPageRankOptions(),
	}
}

func flockController(t *testing.T, p flock.Params) *flock.Controller {
	t.Helper()
	c, err := flock.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
