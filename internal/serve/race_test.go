//go:build race

package serve

// The race detector's sync.Pool drops a random share of Puts, so exact
// allocation counts are not meaningful under -race.
func init() { raceEnabled = true }
