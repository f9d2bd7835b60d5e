//go:build !race

package machine

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
