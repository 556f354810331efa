//go:build race

package recovery

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so Acquire makes a record now and then.
func init() { raceEnabled = true }
