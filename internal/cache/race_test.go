//go:build race

package cache

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// what it is handed so that races on pooled values show.
const raceEnabled = true
