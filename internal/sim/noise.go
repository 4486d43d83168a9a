package sim

import (
	"sync"

	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
)

// noiseChunk is the noise table's fill unit in integration steps.
const noiseChunk = 64

// noiseTable holds every drone's GPS receiver and per-step fix noise
// for the runs resumed from one clean trajectory. A drone's noise
// depends only on the mission seed and the step, never on the spoof
// plan: drone i's k-th fix reads the k-th pair of its stream at step
// k, and a crashed drone never reads again. So the table draws each
// pair once, in stream order, from sensors seeded once, and every
// resumed run perceives from it instead of re-seeding sensors and
// replaying the skipped prefix of each stream.
//
// The table fills on demand, noiseChunk steps at a time, up to the
// longest run resumed so far; growing takes the lock. A chunk is never
// written once appended, so a run reads the chunks it has been handed
// without locking.
type noiseTable struct {
	m  *Mission
	mu sync.Mutex
	// sensors are nil until the first resumed run asks for the table.
	sensors []*gps.Sensor
	rx      []gps.Receiver
	// chunks[c][j*n+i] is drone i's noise at step c·noiseChunk+j.
	chunks [][]gps.Noise
}

// upTo fills the table through step and returns the receivers and the
// chunks filled so far.
func (nt *noiseTable) upTo(step int) ([]gps.Receiver, [][]gps.Noise) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	cfg := &nt.m.Config
	n := cfg.NumDrones
	if nt.sensors == nil {
		nt.sensors = make([]*gps.Sensor, n)
		nt.rx = make([]gps.Receiver, n)
		for i := range nt.sensors {
			nt.sensors[i] = gps.NewSensor(cfg.GPSBias, cfg.GPSNoise, rng.DeriveN(cfg.Seed, "gps", i))
			nt.rx[i] = nt.sensors[i].Receiver()
		}
	}
	for len(nt.chunks)*noiseChunk <= step {
		c := make([]gps.Noise, noiseChunk*n)
		for i, sen := range nt.sensors {
			for j := 0; j < noiseChunk; j++ {
				c[j*n+i] = sen.Noise()
			}
		}
		nt.chunks = append(nt.chunks, c)
	}
	return nt.rx, nt.chunks
}
