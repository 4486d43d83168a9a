package sim

// ForkEvery exposes the fork-point cadence to the external tests.
const ForkEvery = forkEvery
