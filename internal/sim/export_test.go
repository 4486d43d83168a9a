package sim

// ForkEvery exposes the fork-point cadence to the external tests.
const ForkEvery = forkEvery

// SmallConfig, Straight and NaNAfter expose the internal tests' short
// mission and simple controllers to the external tests.
var SmallConfig = smallConfig

func Straight(speed float64) Controller { return straightController{speed} }

func NaNAfter(t float64) Controller { return nanController{after: t} }
