package cache

// DCLog is the optional durability journal for the DC level: the hierarchy
// reports every DC admission (Put) and eviction (Remove) so an on-disk
// log-structured store (internal/diskcache) can rebuild the DC's contents
// after a crash. The in-memory eviction policy stays authoritative for
// serving; the journal is write-only on the request path.
//
// Implementations must be cheap and must not fail the request path: the
// methods return nothing, and implementations are expected to make I/O
// errors sticky internally (drop-and-count) rather than panic. Both methods
// are called from Serve under the owning shard's lock, so they execute in
// the hot path — implementations must not allocate per call (the journal's
// Put is pinned by diskcache's TestPutAllocFree).
type DCLog interface {
	// Put records that id (with the given size) is now DC-resident.
	// Re-putting a resident id refreshes its size.
	Put(id uint64, size int64)
	// Remove records that id left the DC.
	Remove(id uint64)
}
