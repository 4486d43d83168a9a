package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(1, "gps")
	b := Derive(1, "placement")
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("derived streams look identical: %d/%d equal draws", same, n)
	}
}

func TestDeriveStable(t *testing.T) {
	a := Derive(99, "x")
	b := Derive(99, "x")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same label diverged at draw %d", i)
		}
	}
}

func TestDeriveNDistinct(t *testing.T) {
	a := DeriveN(5, "drone", 0)
	b := DeriveN(5, "drone", 1)
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Error("DeriveN with different n produced identical streams")
	}
}

func TestDeriveNStable(t *testing.T) {
	a := DeriveN(5, "drone", 3)
	b := DeriveN(5, "drone", 3)
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("DeriveN stream diverged at draw %d", i)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	s := New(2)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Uniform(0, 10)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.2 {
		t.Errorf("Uniform(0,10) mean = %v, want ~5", mean)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(3)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Gaussian(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.1 {
		t.Errorf("Gaussian mean = %v, want ~2", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.1 {
		t.Errorf("Gaussian stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(4)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(5)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v, want ~0.3", freq)
	}
}

func TestPropUniformWithinBounds(t *testing.T) {
	f := func(seed uint64, lo, hi float64) bool {
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		lo = math.Mod(lo, 1e6)
		hi = math.Mod(hi, 1e6)
		if lo >= hi {
			lo, hi = hi-1, lo+1
		}
		v := New(seed).Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDeriveDeterministic(t *testing.T) {
	f := func(seed uint64, label string) bool {
		return Derive(seed, label).Float64() == Derive(seed, label).Float64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamMatchesMathRand pins New(seed) to the stream of
// rand.New(rand.NewSource(seed)) draw for draw across the methods the
// simulator and fuzzers use. Every recorded golden and reference
// output rests on this contract.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1<<63 + 5} {
		got := New(seed)
		want := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 3000; i++ {
			var g, w uint64
			switch i % 3 {
			case 0:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 1:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			default:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got bits %#x, want %#x", seed, i, g, w)
			}
		}
	}
}
