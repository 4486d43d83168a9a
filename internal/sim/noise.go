package sim

import (
	"sync"

	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
)

// noiseChunk is the number of steps of GPS noise every run reads at
// once: a chunk c holds drone i's noise at its j-th step in c[j*n+i].
const noiseChunk = 64

// newSensors seeds every drone's GPS sensor and receiver for cfg.
func newSensors(cfg *MissionConfig) ([]*gps.Sensor, []gps.Receiver) {
	sensors := make([]*gps.Sensor, cfg.NumDrones)
	rx := make([]gps.Receiver, cfg.NumDrones)
	for i := range sensors {
		sensors[i] = gps.NewSensor(cfg.GPSBias, cfg.GPSNoise, rng.DeriveN(cfg.Seed, "gps", i))
		rx[i] = sensors[i].Receiver()
	}
	return sensors, rx
}

// fillNoise draws every sensor's next noiseChunk fixes into c in
// stream order. A drone reads the k-th draw of its stream at step k and
// never reads again once crashed, so drawing ahead changes no reading.
func fillNoise(c []gps.Noise, sensors []*gps.Sensor) {
	n := len(sensors)
	for i, sen := range sensors {
		for j := 0; j < noiseChunk; j++ {
			c[j*n+i] = sen.Noise()
		}
	}
}

// noiseTable holds every drone's GPS receiver and per-step fix noise
// for the runs resumed from one clean trajectory. A drone's noise
// depends only on the mission seed and the step, never on the spoof
// plan. So the table draws each chunk once, from sensors seeded once,
// and every resumed run perceives from it instead of re-seeding
// sensors and replaying the skipped prefix of each stream.
//
// It fills on demand under the lock, a chunk at a time, up to the
// longest run resumed so far. A chunk is never written once appended,
// so a run reads the chunk it was handed without locking.
type noiseTable struct {
	m  *Mission
	mu sync.Mutex
	// sensors are nil until the first resumed run asks for the table.
	sensors []*gps.Sensor
	rx      []gps.Receiver
	// chunks[c] holds the noise of steps c·noiseChunk onward.
	chunks [][]gps.Noise
}

// chunk fills the table through step and returns the chunk holding it.
func (nt *noiseTable) chunk(step int) []gps.Noise {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.sensors == nil {
		nt.sensors, nt.rx = newSensors(&nt.m.Config)
	}
	for len(nt.chunks)*noiseChunk <= step {
		c := make([]gps.Noise, noiseChunk*len(nt.sensors))
		fillNoise(c, nt.sensors)
		nt.chunks = append(nt.chunks, c)
	}
	return nt.chunks[step/noiseChunk]
}
