package sim

import (
	"math"
	"testing"
	"testing/quick"

	"swarmfuzz/internal/vec"
)

func TestDefaultMissionConfigValid(t *testing.T) {
	if err := DefaultMissionConfig(5, 1).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestMissionConfigValidation(t *testing.T) {
	mod := func(f func(*MissionConfig)) MissionConfig {
		c := DefaultMissionConfig(5, 1)
		f(&c)
		return c
	}
	bad := []MissionConfig{
		mod(func(c *MissionConfig) { c.NumDrones = 1 }),
		mod(func(c *MissionConfig) { c.MissionLength = 0 }),
		mod(func(c *MissionConfig) { c.StartOffsetMax = -1 }),
		mod(func(c *MissionConfig) { c.MinSeparation = 0 }),
		mod(func(c *MissionConfig) { c.ObstacleRadius = 0 }),
		mod(func(c *MissionConfig) { c.DroneRadius = 0 }),
		mod(func(c *MissionConfig) { c.DestRadius = 0 }),
		mod(func(c *MissionConfig) { c.Dt = 0 }),
		mod(func(c *MissionConfig) { c.MaxTime = 0 }),
		mod(func(c *MissionConfig) { c.SampleEvery = 0 }),
		mod(func(c *MissionConfig) { c.GPSBias = -1 }),
		mod(func(c *MissionConfig) { c.Body.Tau = 0 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewMission(c); err == nil {
			t.Errorf("NewMission accepted bad config %d", i)
		}
	}
}

func TestNewMissionDeterministic(t *testing.T) {
	a, err := NewMission(DefaultMissionConfig(7, 99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMission(DefaultMissionConfig(7, 99))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatalf("start position %d differs across identical configs", i)
		}
	}
	if a.Obstacle() != b.Obstacle() {
		t.Error("obstacle differs across identical configs")
	}
	if a.World.Destination != b.World.Destination {
		t.Error("destination differs across identical configs")
	}
}

func TestNewMissionSeedsDiffer(t *testing.T) {
	a, err := NewMission(DefaultMissionConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMission(DefaultMissionConfig(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical start positions")
	}
}

func TestNewMissionSeparation(t *testing.T) {
	cfg := DefaultMissionConfig(15, 3)
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Start) != 15 {
		t.Fatalf("placed %d drones, want 15", len(m.Start))
	}
	for i := range m.Start {
		for j := i + 1; j < len(m.Start); j++ {
			if d := m.Start[i].Dist(m.Start[j]); d < cfg.MinSeparation {
				t.Errorf("drones %d,%d separated by %.2f < %.2f", i, j, d, cfg.MinSeparation)
			}
		}
	}
}

func TestNewMissionGeometry(t *testing.T) {
	cfg := DefaultMissionConfig(5, 7)
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Migration axis is +Y.
	if m.Axis != vec.New(0, 1, 0) {
		t.Errorf("axis = %v, want +Y", m.Axis)
	}
	// The obstacle is near the half-way mark along the axis.
	ob := m.Obstacle()
	centre := vec.Mean(m.Start)
	alongObs := ob.Center.Y - centre.Y
	if math.Abs(alongObs-cfg.MissionLength/2) > cfg.MissionLength/4 {
		t.Errorf("obstacle at %.1fm along path, want near %.1f", alongObs, cfg.MissionLength/2)
	}
	// Destination is MissionLength ahead of the start centre.
	alongDest := m.World.Destination.Y - centre.Y
	if math.Abs(alongDest-cfg.MissionLength) > cfg.StartOffsetMax {
		t.Errorf("destination %.1fm ahead, want ~%.1f", alongDest, cfg.MissionLength)
	}
	// All drones at the configured altitude.
	for i, p := range m.Start {
		if p.Z != cfg.Altitude {
			t.Errorf("drone %d altitude %v, want %v", i, p.Z, cfg.Altitude)
		}
	}
}

func TestPropMissionObstacleJitterBounded(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultMissionConfig(5, seed)
		m, err := NewMission(cfg)
		if err != nil {
			return false
		}
		centre := vec.Mean(m.Start)
		lateral := math.Abs(m.Obstacle().Center.X - centre.X)
		// Obstacle lateral offset is bounded by jitter plus the spread
		// of the start positions around their centre.
		return lateral <= cfg.ObstacleLateralJitter+cfg.StartOffsetMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
