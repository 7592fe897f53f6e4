package cache

// S4LRU is the segmented LRU policy with four queues used by several
// production CDNs (cf. Huang et al., "An Analysis of Facebook Photo
// Caching"): objects enter the lowest segment; a hit promotes an object one
// segment up; each segment holds at most a quarter of the capacity's
// *object-count budget* worth of recency, with overflowing heads demoted to
// the segment below. Eviction takes the LRU tail of the lowest non-empty
// segment. It is provided as an eviction ablation against the paper's LRU
// default. All four segments share one slab-backed node arena, so promotion
// and demotion re-link nodes without allocating.
type S4LRU struct {
	arena *nodeArena
	segs  [4]int32 // sentinel per segment; index 0 = lowest; front = most recent
	index idTable[s4Pos]
	bytes int64
	// segBytes tracks per-segment resident bytes; each segment is balanced
	// to at most 1/4 of total bytes on insertion/promotion.
	segBytes [4]int64
	capHint  int64
}

// s4Pos locates a resident object: its arena node and current segment.
type s4Pos struct {
	node int32
	seg  int8
}

// NewS4LRU returns an empty segmented-LRU policy. capHint bounds per-segment
// bytes to capHint/4; a zero hint disables segment balancing (segments then
// only bound each other through demotion on eviction pressure).
func NewS4LRU(capHint int64) *S4LRU {
	s := &S4LRU{arena: newNodeArena(64), capHint: capHint}
	for i := range s.segs {
		s.segs[i] = s.arena.newList()
	}
	return s
}

// Insert implements Eviction: new objects enter segment 0.
func (s *S4LRU) Insert(id uint64, size int64) {
	p, resident := s.index.upsert(id)
	if resident {
		old := s.arena.nodes[p.node].size
		s.bytes += size - old
		s.segBytes[p.seg] += size - old
		s.arena.nodes[p.node].size = size
		s.arena.moveToFront(s.segs[p.seg], p.node)
		return
	}
	i := s.arena.alloc(id, size)
	s.arena.pushFront(s.segs[0], i)
	*p = s4Pos{node: i, seg: 0}
	s.bytes += size
	s.segBytes[0] += size
	s.balance(0)
}

// Touch implements Eviction: hits promote one segment up.
func (s *S4LRU) Touch(id uint64) { s.Hit(id) }

// Hit implements Eviction.
func (s *S4LRU) Hit(id uint64) bool {
	p := s.index.get(id)
	if p == nil {
		return false
	}
	target := p.seg
	if target < 3 {
		target++
	}
	size := s.arena.nodes[p.node].size
	s.arena.unlink(p.node)
	s.segBytes[p.seg] -= size
	s.arena.pushFront(s.segs[target], p.node)
	s.segBytes[target] += size
	p.seg = target
	s.balance(int(target))
	return true
}

// balance demotes LRU tails of over-budget segments downward.
func (s *S4LRU) balance(from int) {
	if s.capHint <= 0 {
		return
	}
	budget := s.capHint / 4
	for seg := from; seg >= 1; seg-- {
		for s.segBytes[seg] > budget {
			i := s.arena.back(s.segs[seg])
			if i == nilNode {
				break
			}
			id, size := s.arena.nodes[i].id, s.arena.nodes[i].size
			s.arena.unlink(i)
			s.segBytes[seg] -= size
			s.arena.pushFront(s.segs[seg-1], i)
			s.segBytes[seg-1] += size
			s.index.get(id).seg = int8(seg - 1)
		}
	}
}

// Victim implements Eviction: the LRU tail of the lowest non-empty segment.
func (s *S4LRU) Victim() (uint64, int64, bool) {
	for _, list := range s.segs {
		if i := s.arena.back(list); i != nilNode {
			return s.arena.nodes[i].id, s.arena.nodes[i].size, true
		}
	}
	return 0, 0, false
}

// Remove implements Eviction.
func (s *S4LRU) Remove(id uint64) {
	p, ok := s.index.delete(id)
	if !ok {
		return
	}
	size := s.arena.nodes[p.node].size
	s.arena.unlink(p.node)
	s.arena.release(p.node)
	s.segBytes[p.seg] -= size
	s.bytes -= size
}

// Contains implements Eviction.
func (s *S4LRU) Contains(id uint64) bool { return s.index.get(id) != nil }

// Size implements Eviction.
func (s *S4LRU) Size(id uint64) int64 {
	if p := s.index.get(id); p != nil {
		return s.arena.nodes[p.node].size
	}
	return 0
}

// Len implements Eviction.
func (s *S4LRU) Len() int { return s.index.len() }

// Bytes implements Eviction.
func (s *S4LRU) Bytes() int64 { return s.bytes }

// Entries implements Eviction (victim-first: lowest segment tails first).
func (s *S4LRU) Entries() []ResidentObject {
	out := make([]ResidentObject, 0, s.index.len())
	for _, list := range s.segs {
		out = s.arena.appendVictimFirst(list, out)
	}
	return out
}
