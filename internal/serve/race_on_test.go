//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what is put back, so allocation counts are not meaningful.
const raceEnabled = true
