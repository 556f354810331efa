//go:build race

package sim

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so scheduling from a warm node pool allocates now and then.
func init() { raceEnabled = true }
