package cache

// S4LRU is the segmented LRU policy with four queues used by several
// production CDNs (cf. Huang et al., "An Analysis of Facebook Photo
// Caching"): objects enter the lowest segment; a hit promotes an object one
// segment up; each segment holds at most a quarter of the capacity's
// *object-count budget* worth of recency, with overflowing heads demoted to
// the segment below. Eviction takes the LRU tail of the lowest non-empty
// segment. It is provided as an eviction ablation against the paper's LRU
// default. All four segments share one slab-backed node arena — the
// embedded listLevel's, whose list is segment 0 — so promotion and demotion
// re-link nodes without allocating; the handle is the node.
type S4LRU struct {
	listLevel
	segs [4]int32 // sentinel per segment; index 0 = lowest; front = most recent
	// seg is each arena node's current segment, indexed by node, so that
	// promotion and demotion look nothing up.
	seg []int8
	// segBytes tracks per-segment resident bytes; each segment is balanced
	// to at most 1/4 of total bytes on insertion/promotion.
	segBytes [4]int64
	capHint  int64
}

// NewS4LRU returns an empty segmented-LRU policy. capHint bounds per-segment
// bytes to capHint/4; a zero hint disables segment balancing (segments then
// only bound each other through demotion on eviction pressure).
func NewS4LRU(capHint int64) *S4LRU {
	s := &S4LRU{listLevel: newListLevel(), capHint: capHint}
	s.segs[0] = s.list
	for i := 1; i < len(s.segs); i++ {
		s.segs[i] = s.arena.newList()
	}
	s.seg = make([]int8, len(s.arena.nodes), cap(s.arena.nodes))
	return s
}

// Insert implements Eviction: new objects enter segment 0.
func (s *S4LRU) Insert(size int64, slot uint32) int32 {
	i := s.listLevel.Insert(size, slot)
	if int(i) == len(s.seg) {
		s.seg = append(s.seg, 0)
	}
	s.seg[i] = 0
	s.segBytes[0] += size
	s.balance(0)
	return i
}

// Hit implements Eviction: hits promote one segment up.
func (s *S4LRU) Hit(h int32) {
	from := s.seg[h]
	target := from
	if target < 3 {
		target++
	}
	size := s.arena.nodes[h].size
	s.arena.unlink(h)
	s.segBytes[from] -= size
	s.arena.pushFront(s.segs[target], h)
	s.segBytes[target] += size
	s.seg[h] = target
	s.balance(int(target))
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
			size := s.arena.nodes[i].size
			s.arena.unlink(i)
			s.segBytes[seg] -= size
			s.arena.pushFront(s.segs[seg-1], i)
			s.segBytes[seg-1] += size
			s.seg[i] = int8(seg - 1)
		}
	}
}

// Victim implements Eviction: the LRU tail of the lowest non-empty segment.
func (s *S4LRU) Victim() (int32, bool) {
	for _, list := range s.segs {
		if i := s.arena.back(list); i != nilNode {
			return i, true
		}
	}
	return noHandle, false
}

// Remove implements Eviction.
func (s *S4LRU) Remove(h int32) {
	s.segBytes[s.seg[h]] -= s.arena.nodes[h].size
	s.listLevel.Remove(h)
}

// Entries implements Eviction (victim-first: lowest segment tails first).
func (s *S4LRU) Entries(yield func(slot uint32, size int64)) {
	for _, list := range s.segs {
		s.arena.victimFirst(list, yield)
	}
}
