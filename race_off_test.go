//go:build !race

package sqe

const raceEnabled = false
