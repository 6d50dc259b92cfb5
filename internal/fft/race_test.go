//go:build race

package fft

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// pool-reuse assertions cannot hold under it.
const raceEnabled = true
