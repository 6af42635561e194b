//go:build !race

package finject

const raceEnabled = false
