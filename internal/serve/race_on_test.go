//go:build race

package serve

// raceDetector reports a -race build, whose instrumentation changes
// allocation counts.
const raceDetector = true
