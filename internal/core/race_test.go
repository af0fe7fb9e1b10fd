//go:build race

package core

// The race detector's sync.Pool drops a random share of Puts, so
// allocation counts on pooled paths are not meaningful under -race.
func init() { raceEnabled = true }
