//go:build race

package gpustream

// raceEnabled reports whether the race detector is compiled in (the
// two-file build-tag constant the standard library uses).
const raceEnabled = true
