// Package opt implements the gradient-guided search SwarmFuzz uses to
// find spoofing parameters (§IV-C of the paper): projected gradient
// descent on a two-dimensional objective f(t_s, Δt) — the minimum
// distance between the victim drone and the obstacle — whose gradients
// are estimated with finite differences because the objective is only
// available through simulation.
//
// The update rule is the paper's Equation 1:
//
//	t_s  = max(t_s  − lr·∂f/∂t_s,  0)
//	Δt   = max(Δt   − lr·∂f/∂Δt,   0)
//
// and the search stops as soon as the objective is non-positive (a
// collision), when the iteration cap is reached, or when progress
// stalls.
package opt

import (
	"fmt"
	"math"
)

// Objective evaluates f at a candidate point (t_s, Δt) and reports its
// value. Lower is better; a non-positive value is a collision.
type Objective func(ts, dt float64) float64

// Options parameterise the descent.
type Options struct {
	// LearningRate is lr in Equation 1.
	LearningRate float64
	// FDStep is the finite-difference step h for gradient estimation.
	FDStep float64
	// MaxIters caps the number of descent iterations. One iteration
	// evaluates one candidate point (plus gradient probes).
	MaxIters int
	// Horizon bounds t_s + Δt (the mission duration constraint
	// t_s + Δt < t_mission). Zero disables the bound.
	Horizon float64
	// MinStep stops the search when the parameter update is smaller
	// than this (stalled descent).
	MinStep float64
	// Observe, when non-nil, receives one structured Iterate per
	// counted iteration, in iteration order. Gradient probes are not
	// observed unless they terminate the search (a probe that finds the
	// collision counts as an iteration, matching Result.Iters). Each
	// Iterate carries the finite-difference gradient norm and the
	// projected step the descent took from it, so it is emitted after
	// the gradient probes (or immediately, with GradNorm < 0, when the
	// iterate terminates the search).
	Observe func(Iterate)
}

// Iterate is one structured record of the descent: the counted
// iteration, the evaluated point and value,
// and — when the iterate did not terminate the search — the estimated
// gradient norm and the projected step taken from it.
type Iterate struct {
	// Iter is the zero-based counted iteration.
	Iter int
	// TS, DT and Value are the evaluated point and its objective.
	TS, DT, Value float64
	// GradNorm is the Euclidean norm of the forward-difference
	// gradient estimate, or -1 when the iterate terminated the search
	// before probing (a candidate or probe that found the collision).
	GradNorm float64
	// StepSize is |Δt_s| + |ΔΔt| of the projected update taken from
	// this iterate; 0 when the iterate terminated the search.
	StepSize float64
	// Accepted reports whether the iterate improved the best value
	// seen so far (and so became Result.TS/DT/Value at the time).
	Accepted bool
}

// DefaultOptions returns the parameterisation used by SwarmFuzz: the
// paper caps each seed at 20 search iterations.
func DefaultOptions() Options {
	return Options{
		LearningRate: 1.5,
		FDStep:       1.0,
		MaxIters:     20,
		MinStep:      0.01,
	}
}

// Validate returns an error describing the first invalid option.
func (o Options) Validate() error {
	switch {
	case o.LearningRate <= 0:
		return fmt.Errorf("opt: learning rate %v must be positive", o.LearningRate)
	case o.FDStep <= 0:
		return fmt.Errorf("opt: finite-difference step %v must be positive", o.FDStep)
	case o.MaxIters < 1:
		return fmt.Errorf("opt: max iterations %d must be >= 1", o.MaxIters)
	case o.Horizon < 0:
		return fmt.Errorf("opt: horizon %v must be non-negative", o.Horizon)
	case o.MinStep < 0:
		return fmt.Errorf("opt: min step %v must be non-negative", o.MinStep)
	}
	return nil
}

// Result reports the outcome of one descent.
type Result struct {
	// TS and DT are the best parameters found.
	TS, DT float64
	// Value is the objective at (TS, DT).
	Value float64
	// Found reports whether a non-positive objective (collision) was
	// reached.
	Found bool
	// Iters is the number of descent iterations performed (candidate
	// points evaluated, matching the paper's iteration accounting).
	Iters int
	// Evals is the total number of objective evaluations including
	// finite-difference probes.
	Evals int
}

// Minimize runs projected gradient descent from (ts0, dt0).
func Minimize(f Objective, ts0, dt0 float64, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if f == nil {
		return Result{}, fmt.Errorf("opt: nil objective")
	}

	ts, dt := project(ts0, dt0, opts)
	res := Result{TS: ts, DT: dt, Value: math.Inf(1)}

	for iter := 0; iter < opts.MaxIters; iter++ {
		// The candidate is evaluated first; the two forward-difference
		// probes only when it does not terminate the descent.
		v := f(ts, dt)
		res.Iters++
		res.Evals++
		accepted := v < res.Value
		if accepted {
			res.Value, res.TS, res.DT = v, ts, dt
		}
		if v <= 0 {
			res.Found = true
			observe(opts, Iterate{Iter: res.Iters - 1, TS: ts, DT: dt, Value: v, GradNorm: -1, Accepted: accepted})
			return res, nil
		}

		// Forward-difference gradient probes.
		h := opts.FDStep
		vts := f(ts+h, dt)
		vdt := f(ts, dt+h)
		res.Evals += 2
		gts := (vts - v) / h
		gdt := (vdt - v) / h
		candIt := Iterate{
			Iter: res.Iters - 1, TS: ts, DT: dt, Value: v,
			GradNorm: math.Hypot(gts, gdt), Accepted: accepted,
		}

		// A probe itself may have found the collision.
		if vts <= 0 {
			res.Found = true
			res.Value, res.TS, res.DT = vts, ts+h, dt
			res.Iters++
			observe(opts, candIt) // no step taken from the candidate
			observe(opts, Iterate{Iter: res.Iters - 1, TS: ts + h, DT: dt, Value: vts, GradNorm: -1, Accepted: true})
			return res, nil
		}
		if vdt <= 0 {
			res.Found = true
			res.Value, res.TS, res.DT = vdt, ts, dt+h
			res.Iters++
			observe(opts, candIt) // no step taken from the candidate
			observe(opts, Iterate{Iter: res.Iters - 1, TS: ts, DT: dt + h, Value: vdt, GradNorm: -1, Accepted: true})
			return res, nil
		}

		nts, ndt := project(ts-opts.LearningRate*gts, dt-opts.LearningRate*gdt, opts)
		step := math.Abs(nts-ts) + math.Abs(ndt-dt)
		candIt.StepSize = step
		observe(opts, candIt)
		if step < opts.MinStep {
			break // stalled
		}
		ts, dt = nts, ndt
	}
	return res, nil
}

// observe forwards an Iterate to the Observe hook when one is set.
func observe(opts Options, it Iterate) {
	if opts.Observe != nil {
		opts.Observe(it)
	}
}

// project clamps (ts, dt) to the feasible region: both non-negative,
// and ts + dt <= Horizon when a horizon is set (Equation 1's max(·,0)
// projection plus the mission-duration constraint).
func project(ts, dt float64, opts Options) (float64, float64) {
	ts = math.Max(ts, 0)
	dt = math.Max(dt, 0)
	if opts.Horizon > 0 && ts+dt > opts.Horizon {
		// Shrink the duration first — a spoof reaching past the end of
		// the mission is equivalent to one ending at the horizon.
		dt = math.Max(opts.Horizon-ts, 0)
		if ts > opts.Horizon {
			ts = opts.Horizon
		}
	}
	return ts, dt
}

// Sweep1D evaluates f along one axis and returns the sampled values;
// used to demonstrate the convexity of the objective (Fig. 5e).
func Sweep1D(f func(x float64) float64, lo, hi float64, samples int) (xs, ys []float64) {
	if samples < 2 || hi <= lo {
		return nil, nil
	}
	xs = make([]float64, samples)
	ys = make([]float64, samples)
	step := (hi - lo) / float64(samples-1)
	for i := 0; i < samples; i++ {
		x := lo + float64(i)*step
		xs[i] = x
		ys[i] = f(x)
	}
	return xs, ys
}

// ConvexityViolations counts how often a sampled curve violates
// discrete convexity (y[i] > (y[i-1]+y[i+1])/2 + tol). A perfectly
// convex sampling returns 0. Used by the Fig. 5 reproduction to
// quantify how close the empirical objective is to convex.
func ConvexityViolations(ys []float64, tol float64) int {
	violations := 0
	for i := 1; i+1 < len(ys); i++ {
		if ys[i] > (ys[i-1]+ys[i+1])/2+tol {
			violations++
		}
	}
	return violations
}
