//go:build race

package core

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so a session, whose event nodes, segments and packet records come
// from pools, allocates more than it does in a normal build.
func init() { raceEnabled = true }
