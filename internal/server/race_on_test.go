//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what is put back, so warm-call allocation bounds do not hold.
const raceEnabled = true
