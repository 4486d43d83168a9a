package sim

import "swarmfuzz/internal/gps"

// ForkEvery exposes the fork-point cadence to the external tests.
const ForkEvery = forkEvery

// SmallConfig, Straight and NaNAfter expose the internal tests' short
// mission and simple controllers to the external tests.
var SmallConfig = smallConfig

func Straight(speed float64) Controller { return straightController{speed} }

func NaNAfter(t float64) Controller { return nanController{after: t} }

// NoiseChunk exposes the noise table's fill unit to the external tests.
const NoiseChunk = noiseChunk

// NoiseSteps returns how many steps of GPS noise the shared table of
// tr's fork points holds.
func NoiseSteps(tr *Trajectory) int {
	nt := &tr.forks.noise
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return len(nt.chunks) * noiseChunk
}

// StepThrough drives st until it has executed step last or the run has
// ended, and returns copies of its bodies and GPS readings then.
func StepThrough(st *Stepper, last int) ([]Body, []gps.Reading, error) {
	for st.step <= last && !st.done {
		if _, err := st.Step(); err != nil {
			return nil, nil, err
		}
	}
	return append([]Body(nil), st.bodies...), append([]gps.Reading(nil), st.readings...), nil
}
