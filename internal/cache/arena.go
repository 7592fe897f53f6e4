package cache

// nodeArena is a slab-backed allocator for intrusive doubly-linked lists,
// replacing container/list in the hot request path. container/list costs two
// heap objects per resident entry (list.Element plus the boxed value) and a
// pointer chase per link hop; the arena stores all nodes of a policy in one
// contiguous slice, links them by int32 index, and recycles removed nodes
// through a free list, so steady-state insert/evict churn allocates nothing.
//
// Lists are circular with a sentinel node: newList returns the sentinel's
// index, and an empty list is one whose sentinel links to itself. Several
// lists (e.g. S4LRU's four segments) can share one arena. A node's index is
// the list policies' Eviction handle; the first list's sentinel takes index
// 0, so no resident object ever has handle 0 (noHandle). A node carries its
// object's size and record slot (Eviction.Slot), not its id: the record at
// that slot holds the id.
type nodeArena struct {
	nodes []listNode
	free  int32 // head of the free list, linked through next; nilNode = empty
}

// listNode is one resident object (or a list sentinel) in the arena.
type listNode struct {
	size       int64
	prev, next int32
	slot       uint32
}

// nilNode marks "no node" (free-list end).
const nilNode = int32(-1)

// newNodeArena returns an arena with room for hint nodes before regrowing.
func newNodeArena(hint int) nodeArena {
	if hint < 8 {
		hint = 8
	}
	return nodeArena{nodes: make([]listNode, 0, hint), free: nilNode}
}

// newList allocates a sentinel and returns its index (the list handle).
func (a *nodeArena) newList() int32 {
	s := a.alloc(0, 0)
	a.nodes[s].prev = s
	a.nodes[s].next = s
	return s
}

// alloc returns a detached node carrying (size, slot), reusing a freed node
// when possible.
func (a *nodeArena) alloc(size int64, slot uint32) int32 {
	if a.free != nilNode {
		i := a.free
		a.free = a.nodes[i].next
		a.nodes[i] = listNode{size: size, slot: slot}
		return i
	}
	a.nodes = append(a.nodes, listNode{size: size, slot: slot})
	return int32(len(a.nodes) - 1)
}

// release returns an unlinked node to the free list.
func (a *nodeArena) release(i int32) {
	a.nodes[i].next = a.free
	a.free = i
}

// unlink detaches node i from whatever list it is on.
func (a *nodeArena) unlink(i int32) {
	p, n := a.nodes[i].prev, a.nodes[i].next
	a.nodes[p].next = n
	a.nodes[n].prev = p
}

// pushFront links node i at the front (most-recent end) of list.
func (a *nodeArena) pushFront(list, i int32) {
	first := a.nodes[list].next
	a.nodes[i].prev = list
	a.nodes[i].next = first
	a.nodes[first].prev = i
	a.nodes[list].next = i
}

// moveToFront re-links node i at the front of list.
func (a *nodeArena) moveToFront(list, i int32) {
	if a.nodes[list].next == i {
		return
	}
	a.unlink(i)
	a.pushFront(list, i)
}

// back returns the last node of list (the victim end), or nilNode when empty.
func (a *nodeArena) back(list int32) int32 {
	b := a.nodes[list].prev
	if b == list {
		return nilNode
	}
	return b
}

// victimFirst yields list's entries back-to-front (victim first).
func (a *nodeArena) victimFirst(list int32, yield func(slot uint32, size int64)) {
	for i := a.nodes[list].prev; i != list; i = a.nodes[i].prev {
		yield(a.nodes[i].slot, a.nodes[i].size)
	}
}
