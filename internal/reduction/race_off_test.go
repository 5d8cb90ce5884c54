//go:build !race

package reduction

const raceEnabled = false
