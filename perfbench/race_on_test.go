//go:build race

package main

// raceDetector reports a -race build, whose instrumentation slows every
// rung by a different factor.
const raceDetector = true
