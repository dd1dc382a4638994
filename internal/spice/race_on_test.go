//go:build race

package spice

// raceEnabled reports whether the race detector instruments this build;
// allocation-accounting tests skip themselves under it.
const raceEnabled = true
