package fuzz

import (
	"fmt"
	"math"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// rowController hides its controller's BatchCommands, so the Stepper
// decides on the row path: per-drone Command over PerfectBus rows. It
// holds the controller in a named field, since embedding would promote
// BatchCommands.
type rowController struct{ ctrl sim.Controller }

func (c rowController) Command(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3 {
	return c.ctrl.Command(p, nb, w)
}

// TestFindingsReplayFromScratch audits every reported SPV: all four
// fuzzers run on the fixtures the parallel-walk tests crack, and each
// finding's plan is replayed as a full run from t=0 with fresh
// streaming sensors, once on the batch path and once on the row path.
// Each replay must end in the victim hitting the obstacle, and the
// victim's clearance must carry the finding's objective bit for bit,
// although the search scored it on a run resumed from a fork point.
func TestFindingsReplayFromScratch(t *testing.T) {
	findings := 0
	for _, fz := range []Fuzzer{SwarmFuzz{}, RFuzz{}, GFuzz{}, SFuzz{}} {
		for _, fx := range []struct {
			n    int
			seed uint64
		}{{4, 4}, {5, 4}, {5, 3}} {
			in := Input{Mission: testMission(t, fx.n, fx.seed), Controller: testController(t), SpoofDistance: 10}
			opts := DefaultOptions()
			opts.MaxIterPerSeed = 6
			opts.MaxSeeds = 8
			rep, err := fz.Fuzz(in, opts)
			if err != nil {
				t.Fatalf("%s n%d seed%d: %v", fz.Name(), fx.n, fx.seed, err)
			}
			for _, f := range rep.Findings {
				findings++
				for _, ctrl := range []sim.Controller{in.Controller, rowController{in.Controller}} {
					label := fmt.Sprintf("%s n%d seed%d %v (%T)", fz.Name(), fx.n, fx.seed, f, ctrl)
					res, err := sim.Run(in.Mission, sim.RunOptions{Controller: ctrl, Spoof: &f.Plan})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if c := res.CollisionOf(f.Victim); c == nil || c.Kind != sim.KindObstacle {
						t.Errorf("%s: victim's first collision %+v, want an obstacle hit", label, c)
					}
					if got := res.MinClearance[f.Victim]; math.Float64bits(got) != math.Float64bits(f.Objective) {
						t.Errorf("%s: victim clearance %v, finding objective %v", label, got, f.Objective)
					}
				}
			}
		}
	}
	if findings == 0 {
		t.Fatal("no fuzzer cracked a fixture: the audit replayed nothing")
	}
	t.Logf("replayed %d findings", findings)
}
