//go:build race

package finject

// raceEnabled reports whether the test binary runs under the race
// detector, which slows simulation several-fold.
const raceEnabled = true
