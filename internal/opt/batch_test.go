package opt

import (
	"math"
	"testing"
)

// TestBatchMatchesSequential runs the descent with and without the
// batched-objective hook on several synthetic objectives and requires
// identical results, accounting and Observe streams: the batch path exists so callers
// can parallelise the three independent simulations per iteration,
// and must be observationally indistinguishable from the lazy path.
func TestBatchMatchesSequential(t *testing.T) {
	objectives := map[string]Objective{
		// Smooth bowl that crosses zero: the descent finds it.
		"bowl": func(ts, dt float64) float64 {
			return (ts-7)*(ts-7) + (dt-3)*(dt-3) - 1
		},
		// Always positive: the descent exhausts its budget or stalls.
		"positive": func(ts, dt float64) float64 {
			return 1 + math.Abs(ts-5) + math.Abs(dt-5)
		},
		// Non-positive immediately: candidate gate fires on iteration 0.
		"instant": func(ts, dt float64) float64 {
			return -1
		},
		// A probe (not the candidate) finds the collision first.
		"probe-hit": func(ts, dt float64) float64 {
			if ts >= 2.5 {
				return -0.5
			}
			return 5 - ts
		},
	}
	for name, f := range objectives {
		for _, horizon := range []float64{0, 20} {
			opts := DefaultOptions()
			opts.Horizon = horizon

			var seqObs, batObs []Iterate
			seqOpts := opts
			seqOpts.Observe = func(it Iterate) { seqObs = append(seqObs, it) }
			seq, err := Minimize(f, 2, 4, seqOpts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			batOpts := opts
			batOpts.Observe = func(it Iterate) { batObs = append(batObs, it) }
			batCalls := 0
			batOpts.Batch = func(pts [][2]float64) []float64 {
				batCalls++
				if len(pts) != 3 {
					t.Fatalf("%s: batch got %d points, want 3", name, len(pts))
				}
				out := make([]float64, len(pts))
				for i, p := range pts {
					out[i] = f(p[0], p[1])
				}
				return out
			}
			bat, err := Minimize(f, 2, 4, batOpts)
			if err != nil {
				t.Fatalf("%s batched: %v", name, err)
			}

			if seq != bat {
				t.Errorf("%s (horizon %g): sequential %+v != batched %+v", name, horizon, seq, bat)
			}
			if batCalls != bat.Iters && name != "probe-hit" {
				// One batch call per candidate iteration (probe-hit ends
				// on a probe, which adds an extra counted iteration).
				t.Errorf("%s: %d batch calls for %d iterations", name, batCalls, bat.Iters)
			}

			// Structured observation parity: one Iterate per counted
			// iteration, identical across the two paths.
			if len(seqObs) != len(batObs) {
				t.Fatalf("%s: observe lengths differ: %d vs %d", name, len(seqObs), len(batObs))
			}
			for i := range seqObs {
				if seqObs[i] != batObs[i] {
					t.Errorf("%s: observe entry %d differs: %+v vs %+v", name, i, seqObs[i], batObs[i])
				}
			}
			if len(seqObs) != seq.Iters {
				t.Errorf("%s: %d observations for %d iterations", name, len(seqObs), seq.Iters)
			}

			// The observed iterations count 0..Iters-1 in order, and the
			// final accepted iterate — the one Result reports — appears in
			// the stream of both paths. For a found collision it is
			// specifically the LAST entry.
			for _, tc := range []struct {
				path string
				res  Result
				obs  []Iterate
			}{
				{"sequential", seq, seqObs},
				{"batched", bat, batObs},
			} {
				found := -1
				for i, it := range tc.obs {
					if it.Iter != i {
						t.Errorf("%s %s: observation %d carries iteration %d", name, tc.path, i, it.Iter)
					}
					if it.Accepted && it.TS == tc.res.TS && it.DT == tc.res.DT && it.Value == tc.res.Value {
						found = i
					}
				}
				if found < 0 {
					t.Errorf("%s %s: final accepted iterate (%g,%g)=%g never observed",
						name, tc.path, tc.res.TS, tc.res.DT, tc.res.Value)
				}
				last := tc.obs[len(tc.obs)-1]
				if tc.res.Found {
					if !last.Accepted || last.TS != tc.res.TS || last.DT != tc.res.DT || last.Value != tc.res.Value {
						t.Errorf("%s %s: last observation %+v does not match result %+v", name, tc.path, last, tc.res)
					}
					if last.GradNorm != -1 || last.StepSize != 0 {
						t.Errorf("%s %s: terminating observation should carry GradNorm=-1 StepSize=0, got %+v", name, tc.path, last)
					}
				} else if last.GradNorm < 0 {
					t.Errorf("%s %s: non-terminating last observation missing gradient norm: %+v", name, tc.path, last)
				}
			}
		}
	}
}
