//go:build race

package optimizer

// raceEnabled reports a build with the race detector, whose runtime makes
// allocations of its own that testing.AllocsPerRun counts.
const raceEnabled = true
