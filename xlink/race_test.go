//go:build race

package xlink

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so a path that borrows from a pool allocates now and then.
func init() { raceEnabled = true }
