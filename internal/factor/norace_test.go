//go:build !race

package factor

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops pooled values at random, so allocation pins do not hold.
const raceEnabled = false
