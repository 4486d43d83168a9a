package opt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := []Options{
		{LearningRate: 0, FDStep: 1, MaxIters: 5},
		{LearningRate: 1, FDStep: 0, MaxIters: 5},
		{LearningRate: 1, FDStep: 1, MaxIters: 0},
		{LearningRate: 1, FDStep: 1, MaxIters: 5, Horizon: -1},
		{LearningRate: 1, FDStep: 1, MaxIters: 5, MinStep: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
}

func TestMinimizeNilObjective(t *testing.T) {
	if _, err := Minimize(nil, 0, 0, DefaultOptions()); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestMinimizeQuadraticConverges(t *testing.T) {
	// Convex bowl with minimum value 1 at (10, 15): never "found"
	// (never non-positive) but should approach the minimum.
	f := func(ts, dt float64) float64 {
		return 1 + 0.1*((ts-10)*(ts-10)+(dt-15)*(dt-15))
	}
	opts := DefaultOptions()
	opts.LearningRate = 2
	opts.MaxIters = 100
	opts.MinStep = 1e-6
	res, err := Minimize(f, 0, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("positive objective reported as found")
	}
	if math.Abs(res.TS-10) > 1.5 || math.Abs(res.DT-15) > 1.5 {
		t.Errorf("converged to (%v, %v), want near (10, 15)", res.TS, res.DT)
	}
}

func TestMinimizeFindsCollision(t *testing.T) {
	// Bowl dipping below zero near (8, 12).
	f := func(ts, dt float64) float64 {
		return -2 + 0.1*((ts-8)*(ts-8)+(dt-12)*(dt-12))
	}
	res, err := Minimize(f, 0, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("collision not found: %+v", res)
	}
	if res.Value > 0 {
		t.Errorf("found with positive value %v", res.Value)
	}
	if res.Iters > DefaultOptions().MaxIters+1 {
		t.Errorf("iteration accounting broken: %d", res.Iters)
	}
}

func TestMinimizeProjectionNonNegative(t *testing.T) {
	// Gradient pushes toward negative ts: projection must clamp at 0.
	f := func(ts, dt float64) float64 { return 1 + ts + dt }
	opts := DefaultOptions()
	opts.MaxIters = 10
	res, err := Minimize(f, 1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TS < 0 || res.DT < 0 {
		t.Errorf("projection violated: (%v, %v)", res.TS, res.DT)
	}
}

func TestMinimizeHorizonRespected(t *testing.T) {
	// Minimum far beyond the horizon: iterates must stay feasible.
	f := func(ts, dt float64) float64 {
		return 1 + 0.05*((ts-100)*(ts-100)+(dt-100)*(dt-100))
	}
	opts := DefaultOptions()
	opts.Horizon = 50
	opts.MaxIters = 50
	opts.MinStep = 1e-9
	res, err := Minimize(f, 10, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TS+res.DT > opts.Horizon+1e-9 {
		t.Errorf("horizon violated: ts+dt = %v > %v", res.TS+res.DT, opts.Horizon)
	}
}

func TestMinimizeIterationCap(t *testing.T) {
	calls := 0
	f := func(ts, dt float64) float64 {
		calls++
		return 5 + ts*0 // flat positive: no collision, gradient 0
	}
	opts := DefaultOptions()
	opts.MaxIters = 7
	res, err := Minimize(f, 3, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("flat objective reported found")
	}
	// Flat gradient stalls after the first iteration.
	if res.Iters != 1 {
		t.Errorf("flat objective iters = %d, want 1 (stall)", res.Iters)
	}
	if calls != res.Evals {
		t.Errorf("eval accounting: %d calls, %d recorded", calls, res.Evals)
	}
}

func TestMinimizeImmediateCollision(t *testing.T) {
	f := func(ts, dt float64) float64 { return -1 }
	res, err := Minimize(f, 5, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Iters != 1 || res.Evals != 1 {
		t.Errorf("immediate collision mishandled: %+v", res)
	}
}

func TestMinimizeProbeCollision(t *testing.T) {
	// Positive at every descent candidate, negative only when a probe
	// steps forward in ts from the start point.
	start := 5.0
	h := DefaultOptions().FDStep
	f := func(ts, dt float64) float64 {
		if ts == start+h && dt == 5 {
			return -0.5
		}
		return 2
	}
	res, err := Minimize(f, start, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("probe collision not reported")
	}
	if res.TS != start+h {
		t.Errorf("probe collision at ts=%v, want %v", res.TS, start+h)
	}
}

func TestSweep1D(t *testing.T) {
	xs, ys := Sweep1D(func(x float64) float64 { return x * x }, -2, 2, 5)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("lengths %d,%d want 5,5", len(xs), len(ys))
	}
	if xs[0] != -2 || xs[4] != 2 {
		t.Errorf("endpoints %v..%v, want -2..2", xs[0], xs[4])
	}
	if ys[2] != 0 {
		t.Errorf("midpoint value %v, want 0", ys[2])
	}
	if xs, _ := Sweep1D(func(float64) float64 { return 0 }, 2, 2, 5); xs != nil {
		t.Error("degenerate range accepted")
	}
	if xs, _ := Sweep1D(func(float64) float64 { return 0 }, 0, 1, 1); xs != nil {
		t.Error("single-sample sweep accepted")
	}
}

func TestConvexityViolations(t *testing.T) {
	convex := []float64{9, 4, 1, 0, 1, 4, 9}
	if got := ConvexityViolations(convex, 1e-12); got != 0 {
		t.Errorf("convex curve reported %d violations", got)
	}
	bumpy := []float64{0, 3, 0, 3, 0}
	if got := ConvexityViolations(bumpy, 1e-12); got != 2 {
		t.Errorf("bumpy curve reported %d violations, want 2", got)
	}
	if got := ConvexityViolations([]float64{1, 2}, 0); got != 0 {
		t.Errorf("short curve reported %d violations", got)
	}
}

func TestPropMinimizeOnConvexBowls(t *testing.T) {
	f := func(cx, cy uint8) bool {
		tx, ty := float64(cx%40), float64(cy%40)
		obj := func(ts, dt float64) float64 {
			return 0.5 + 0.05*((ts-tx)*(ts-tx)+(dt-ty)*(dt-ty))
		}
		opts := DefaultOptions()
		opts.MaxIters = 200
		opts.LearningRate = 3
		opts.MinStep = 1e-9
		res, err := Minimize(obj, 0, 0, opts)
		if err != nil {
			return false
		}
		// Must reach within a few units of the minimiser of a smooth
		// convex bowl.
		return math.Abs(res.TS-tx) < 3 && math.Abs(res.DT-ty) < 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestObserveStreamMatchesResult runs the descent on several synthetic
// objectives and checks the Observe stream against the Result: one
// Iterate per counted iteration, numbered in order, the final accepted
// iterate present, and a found collision reported by the last entry.
// It also pins the lazy evaluation order: the probes are evaluated
// only when the candidate does not terminate the descent, so every
// objective call is one of Result.Evals.
func TestObserveStreamMatchesResult(t *testing.T) {
	objectives := map[string]Objective{
		// Smooth bowl that crosses zero: the descent finds it.
		"bowl": func(ts, dt float64) float64 {
			return (ts-7)*(ts-7) + (dt-3)*(dt-3) - 1
		},
		// Always positive: the descent exhausts its budget or stalls.
		"positive": func(ts, dt float64) float64 {
			return 1 + math.Abs(ts-5) + math.Abs(dt-5)
		},
		// Non-positive immediately: the candidate ends iteration 0.
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
			var obs []Iterate
			opts.Observe = func(it Iterate) { obs = append(obs, it) }
			calls := 0
			counted := func(ts, dt float64) float64 {
				calls++
				return f(ts, dt)
			}
			res, err := Minimize(counted, 2, 4, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if calls != res.Evals {
				t.Errorf("%s (horizon %g): %d objective calls for %d evals", name, horizon, calls, res.Evals)
			}
			if len(obs) != res.Iters {
				t.Fatalf("%s (horizon %g): %d observations for %d iterations", name, horizon, len(obs), res.Iters)
			}

			// The observed iterations count 0..Iters-1 in order, and the
			// final accepted iterate — the one Result reports — appears in
			// the stream. For a found collision it is specifically the
			// LAST entry.
			found := -1
			for i, it := range obs {
				if it.Iter != i {
					t.Errorf("%s: observation %d carries iteration %d", name, i, it.Iter)
				}
				if it.Accepted && it.TS == res.TS && it.DT == res.DT && it.Value == res.Value {
					found = i
				}
			}
			if found < 0 {
				t.Errorf("%s: final accepted iterate (%g,%g)=%g never observed", name, res.TS, res.DT, res.Value)
			}
			last := obs[len(obs)-1]
			if res.Found {
				if !last.Accepted || last.TS != res.TS || last.DT != res.DT || last.Value != res.Value {
					t.Errorf("%s: last observation %+v does not match result %+v", name, last, res)
				}
				if last.GradNorm != -1 || last.StepSize != 0 {
					t.Errorf("%s: terminating observation should carry GradNorm=-1 StepSize=0, got %+v", name, last)
				}
			} else if last.GradNorm < 0 {
				t.Errorf("%s: non-terminating last observation missing gradient norm: %+v", name, last)
			}
		}
	}
}
