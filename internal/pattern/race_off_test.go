//go:build !race

package pattern_test

const raceEnabled = false
