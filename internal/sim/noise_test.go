package sim

import (
	"math"
	"testing"

	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
)

// TestNoiseFillMatchesStream pins the fill every run reads its GPS
// noise through: k refills of one reused chunk hold, row by row, the
// k·noiseChunk consecutive Noise draws of each sensor's own stream,
// bit for bit, for swarms mixing noisy and noise-free sensors and for
// one to three chunks.
func TestNoiseFillMatchesStream(t *testing.T) {
	for _, stds := range [][]float64{
		{0.12},
		{0},
		{0.12, 0, 2.5},
		{0, 0, 0.3, 1, 0},
	} {
		for chunks := 1; chunks <= 3; chunks++ {
			n := len(stds)
			filled := make([]*gps.Sensor, n)
			streamed := make([]*gps.Sensor, n)
			for i, std := range stds {
				seed := uint64(100*chunks + i)
				filled[i] = gps.NewSensor(0.4, std, rng.New(seed))
				streamed[i] = gps.NewSensor(0.4, std, rng.New(seed))
			}
			c := make([]gps.Noise, noiseChunk*n)
			for k := 0; k < chunks; k++ {
				fillNoise(c, filled)
				for j := 0; j < noiseChunk; j++ {
					for i, sen := range streamed {
						got, want := c[j*n+i], sen.Noise()
						if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
							t.Fatalf("stds %v, fill %d of %d, step %d, drone %d: filled %v, streamed %v",
								stds, k+1, chunks, k*noiseChunk+j, i, got, want)
						}
						if stds[i] == 0 && got != (gps.Noise{}) {
							t.Fatalf("stds %v: noise-free drone %d got noise %v", stds, i, got)
						}
					}
				}
			}
			// Both streams stand at the same draw: the next fix agrees.
			for i := range stds {
				if a, b := filled[i].Noise(), streamed[i].Noise(); a != b {
					t.Fatalf("stds %v, %d chunks: drone %d's streams end apart (%v, %v)", stds, chunks, i, a, b)
				}
			}
		}
	}
}
