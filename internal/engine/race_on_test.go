//go:build race

package engine

// raceEnabled reports a build with the race detector.  There sync.Pool
// drops a put at random (one in four), so a pooled path's allocation
// count does not reproduce from run to run.
const raceEnabled = true
