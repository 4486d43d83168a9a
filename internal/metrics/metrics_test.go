package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVDO(t *testing.T) {
	vdo, victim := VDO([]float64{5, 2, 7, 3})
	if vdo != 2 || victim != 1 {
		t.Errorf("VDO = %v,%d want 2,1", vdo, victim)
	}
	vdo, victim = VDO(nil)
	if !math.IsInf(vdo, 1) || victim != -1 {
		t.Errorf("empty VDO = %v,%d", vdo, victim)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := CDF(xs, []float64{0, 1, 2.5, 4, 10})
	want := []float64{0, 0.25, 0.5, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	got := CDF(nil, []float64{1, 2})
	for i, v := range got {
		if v != 0 {
			t.Errorf("empty CDF[%d] = %v, want 0", i, v)
		}
	}
}

func TestCumulativeSuccessRate(t *testing.T) {
	vdos := []float64{1, 2, 3, 4}
	success := []bool{true, true, false, false}
	got := CumulativeSuccessRate(vdos, success, []float64{0.5, 1, 2, 4})
	if !math.IsNaN(got[0]) {
		t.Errorf("no-mission bucket = %v, want NaN", got[0])
	}
	want := []float64{1, 1, 0.5}
	for i := range want {
		if math.Abs(got[i+1]-want[i]) > 1e-12 {
			t.Errorf("cum rate[%d] = %v, want %v", i+1, got[i+1], want[i])
		}
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{4, 1, 3, 2})
	if b.Min != 1 || b.Max != 4 || b.N != 4 {
		t.Errorf("Box extremes wrong: %+v", b)
	}
	if b.Median != 2.5 {
		t.Errorf("median = %v, want 2.5", b.Median)
	}
	if b.Mean != 2.5 {
		t.Errorf("mean = %v, want 2.5", b.Mean)
	}
	if b.Q1 != 1.75 || b.Q3 != 3.25 {
		t.Errorf("quartiles = %v,%v want 1.75,3.25", b.Q1, b.Q3)
	}
}

func TestBoxSingleAndEmpty(t *testing.T) {
	b := Box([]float64{7})
	if b.Min != 7 || b.Median != 7 || b.Max != 7 || b.Q1 != 7 || b.Q3 != 7 || b.N != 1 {
		t.Errorf("single-element box wrong: %+v", b)
	}
	if got := Box(nil); got.N != 0 {
		t.Errorf("empty box N = %d", got.N)
	}
}

func TestMeanRate(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if got := Rate(3, 4); got != 0.75 {
		t.Errorf("Rate = %v, want 0.75", got)
	}
	if !math.IsNaN(Rate(0, 0)) {
		t.Error("Rate(0,0) should be NaN")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Linspace = %v, want %v", got, want)
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("Linspace(n=0) should be nil")
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace(n=1) = %v", got)
	}
}

func TestPropCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 100))
			}
		}
		ths := Linspace(-100, 100, 21)
		cdf := CDF(xs, ths)
		prev := 0.0
		for _, v := range cdf {
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropBoxOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return Box(xs).N == 0
		}
		b := Box(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 &&
			b.Q3 <= b.Max && b.Min <= b.Mean && b.Mean <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
