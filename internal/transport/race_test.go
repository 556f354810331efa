//go:build race

package transport

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so a path that takes packet records or segments from a pool
// allocates now and then.
func init() { raceEnabled = true }
