// Package sharding is a darwinlint golden fixture for the sharded cache
// data plane: per-shard guarded-by annotations must hold under local shard
// aliases.
package sharding

import "sync"

// shard is one partition of the engine.
type shard struct {
	mu sync.Mutex
	// n is the shard's request count; guarded by mu.
	n int64
}

// ShardedCache routes requests across shards by id hash.
type ShardedCache struct {
	shards []shard
}

// Serve routes, locks the owning shard through a local alias, and counts.
func (s *ShardedCache) Serve(id uint64) int64 {
	sh := &s.shards[int(id)%len(s.shards)]
	sh.mu.Lock()
	sh.n++
	v := sh.n
	sh.mu.Unlock()
	return v
}

// skipLock reads a guarded shard field without taking the shard mutex.
func (s *ShardedCache) skipLock(i int) int64 {
	return s.shards[i].n /* want "n is guarded by mu" */
}

// totalLocked is exempt by the *Locked suffix: the caller holds every lock.
func (s *ShardedCache) totalLocked() int64 {
	var t int64
	for i := range s.shards {
		t += s.shards[i].n
	}
	return t
}
