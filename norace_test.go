//go:build !race

package gpustream

const raceEnabled = false
