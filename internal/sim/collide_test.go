package sim

import (
	"fmt"
	"math"
	"testing"

	"swarmfuzz/internal/vec"
)

// TestCollidePairRule pins collide's pair rule on hand-built bodies.
// Random missions never put two partners in range of one drone, so no
// mission-level test reaches the rule: each drone i, ascending, pairs
// with the least live j > i in range, and that pair's crashes take both
// out of the rest of the pass.
func TestCollidePairRule(t *testing.T) {
	const threshold = 0.5
	at := func(x float64) Body { return Body{Pos: vec.New(x, 0, 0)} }
	crashedAt := func(x float64) Body { return Body{Pos: vec.New(x, 0, 0), Crashed: true} }
	cases := []struct {
		name    string
		bodies  []Body
		pairs   [][2]int
		crashed []bool
	}{
		{
			// Drone 2 is nearer to 0 than drone 1 is, but 0 pairs with
			// the lower index; 2 is out of 1's reach and survives.
			name:    "two partners in range",
			bodies:  []Body{at(0), at(0.4), at(-0.2)},
			pairs:   [][2]int{{0, 1}},
			crashed: []bool{true, true, false},
		},
		{
			name:    "chain 0-1-2",
			bodies:  []Body{at(0), at(0.4), at(0.8)},
			pairs:   [][2]int{{0, 1}},
			crashed: []bool{true, true, false},
		},
		{
			// Crashed drones neither pair nor get paired with.
			name:    "already crashed",
			bodies:  []Body{crashedAt(0), at(0.1), crashedAt(0.2), at(0.3), at(5)},
			pairs:   [][2]int{{1, 3}},
			crashed: []bool{true, true, true, true, false},
		},
		{
			name:    "at the threshold",
			bodies:  []Body{at(0), at(threshold)},
			pairs:   [][2]int{{0, 1}},
			crashed: []bool{true, true},
		},
		{
			name:    "one ulp past the threshold",
			bodies:  []Body{at(0), at(math.Nextafter(threshold, 1))},
			crashed: []bool{false, false},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pairs := collide(c.bodies, threshold, nil)
			if fmt.Sprint(pairs) != fmt.Sprint(c.pairs) {
				t.Errorf("pairs = %v, want %v", pairs, c.pairs)
			}
			for i, b := range c.bodies {
				if b.Crashed != c.crashed[i] {
					t.Errorf("drone %d crashed = %v, want %v", i, b.Crashed, c.crashed[i])
				}
			}
		})
	}
}
