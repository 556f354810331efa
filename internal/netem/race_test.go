//go:build race

package netem

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so a link, which takes its packet buffers from pools, allocates
// now and then.
func init() { raceEnabled = true }
