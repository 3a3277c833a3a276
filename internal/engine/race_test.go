//go:build race

package engine

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so pooled paths allocate afresh and allocation
// pins do not hold.
const raceEnabled = true
