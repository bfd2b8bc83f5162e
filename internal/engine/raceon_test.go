//go:build race

package engine

// raceEnabled reports a race-detector build: sync.Pool drops items at
// random under it, so pooled allocation ceilings cannot hold.
const raceEnabled = true
