//go:build !race

package cache

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
