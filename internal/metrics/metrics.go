// Package metrics computes the summary statistics the paper's
// evaluation reports: the Victim's closest Distance to the Obstacle
// (VDO), success rates, cumulative success rates bucketed by VDO
// (Fig. 6a–c), empirical CDFs (Fig. 6d), and box statistics for the
// spoofing-parameter distributions (Fig. 7).
package metrics

import (
	"math"
	"sort"
)

// VDO returns the swarm's Victim Distance to Obstacle for a clean run:
// the minimum, over drones, of the per-drone minimum obstacle
// clearance. The drone attaining it is the most promising victim.
func VDO(minClearance []float64) (vdo float64, victim int) {
	vdo, victim = math.Inf(1), -1
	for i, c := range minClearance {
		if c < vdo {
			vdo, victim = c, i
		}
	}
	return vdo, victim
}

// CDF computes the empirical CDF of xs at each of the given thresholds:
// F(x) = fraction of samples <= x.
func CDF(xs, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, th := range thresholds {
		// Count of samples <= th.
		n := sort.Search(len(sorted), func(j int) bool { return sorted[j] > th })
		out[i] = float64(n) / float64(len(sorted))
	}
	return out
}

// CumulativeSuccessRate computes, for each threshold x, the success
// rate over the subset of missions whose VDO is at most x: the metric
// of Fig. 6a–c. Missions above every threshold are ignored. Thresholds
// with no qualifying missions yield NaN.
func CumulativeSuccessRate(vdos []float64, success []bool, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		total, hits := 0, 0
		for j, v := range vdos {
			if v <= th {
				total++
				if success[j] {
					hits++
				}
			}
		}
		if total == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = float64(hits) / float64(total)
		}
	}
	return out
}

// BoxStats are five-number summary statistics plus the mean, as used
// for Fig. 7's box plots.
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Box computes BoxStats for xs. An empty input yields a zero value
// with N == 0.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return BoxStats{
		Min:    sorted[0],
		Q1:     quantile(sorted, 0.25),
		Median: quantile(sorted, 0.5),
		Q3:     quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		N:      len(sorted),
	}
}

// quantile returns the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Rate returns hits/total as a float, or NaN when total is zero.
func Rate(hits, total int) float64 {
	if total == 0 {
		return math.NaN()
	}
	return float64(hits) / float64(total)
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
