package cache

import (
	"fmt"
	"math"
	"sort"
)

// This file is the cache engine's checkpoint/restore seam: every piece of
// per-shard learned and resident state — HOC/DC contents in eviction order,
// the request counts and missed marks, metrics, and the deployed expert —
// exports to a plain serialisable struct. Restore checks a snapshot's
// shape, then that it fits the engine, and builds everything before any
// live field is mutated (never half-apply).

// TrackerState is the serialisable form of the request counts and missed
// marks: parallel IDs/Counts/LastSeen/Missed arrays over every record with
// a count or a mark, sorted by id. A record with count 0 is one ResetCounts
// kept for its mark; its LastSeen is 0.
type TrackerState struct {
	IDs      []uint64 `json:"ids,omitempty"`
	Counts   []int    `json:"counts,omitempty"`
	LastSeen []int64  `json:"last_seen,omitempty"`
	Missed   []bool   `json:"missed,omitempty"`
}

// trackerState snapshots the request counts and missed marks, sorted by id
// for deterministic output (the table's slot order is an artefact of its
// seed and growth history). Records with neither a count nor a mark hold
// residency only and are not exported: HOC and DC carry them.
func (h *Hierarchy) trackerState() *TrackerState {
	ids := make([]uint64, 0, h.objs.len())
	h.objs.each(func(id uint64, rec *objRec) {
		if rec.count > 0 || rec.missed {
			ids = append(ids, id)
		}
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	st := &TrackerState{
		IDs:      ids,
		Counts:   make([]int, len(ids)),
		LastSeen: make([]int64, len(ids)),
		Missed:   make([]bool, len(ids)),
	}
	for i, id := range ids {
		rec := h.objs.get(id)
		st.Counts[i] = rec.count
		st.LastSeen[i] = rec.lastSeen
		st.Missed[i] = rec.missed
	}
	return st
}

// validate checks a tracker snapshot taken at request index reqIdx: one
// count and mark per id, ids strictly increasing, no count negative, a
// count of 0 only on a marked record with LastSeen 0, and every request a
// positive count counts in the past.
func (st *TrackerState) validate(reqIdx int64) error {
	if st == nil {
		return fmt.Errorf("cache: nil tracker state")
	}
	if len(st.IDs) != len(st.Counts) || len(st.IDs) != len(st.LastSeen) || len(st.IDs) != len(st.Missed) {
		return fmt.Errorf("cache: exact tracker state arrays disagree (%d/%d/%d/%d)",
			len(st.IDs), len(st.Counts), len(st.LastSeen), len(st.Missed))
	}
	for i, id := range st.IDs {
		if i > 0 && id <= st.IDs[i-1] {
			return fmt.Errorf("cache: exact tracker state lists id %d after %d", id, st.IDs[i-1])
		}
		switch {
		case st.Counts[i] < 0:
			return fmt.Errorf("cache: exact tracker state has count %d for id %d", st.Counts[i], id)
		case st.Counts[i] == 0 && !st.Missed[i]:
			return fmt.Errorf("cache: exact tracker state lists id %d with neither a count nor a mark", id)
		case st.Counts[i] == 0 && st.LastSeen[i] != 0:
			return fmt.Errorf("cache: uncounted id %d last seen at request %d", id, st.LastSeen[i])
		case st.Counts[i] > 0 && (st.LastSeen[i] < 0 || st.LastSeen[i] >= reqIdx):
			return fmt.Errorf("cache: id %d last seen at request %d of %d", id, st.LastSeen[i], reqIdx)
		}
	}
	return nil
}

// ResidentObject is one (id, size) pair resident in a level: the form a
// level takes in a checkpoint, a journal's live set and a handoff.
type ResidentObject struct {
	ID   uint64
	Size int64
}

// HierarchyState is the serialisable form of one Hierarchy (one shard). HOC
// and DC list resident objects in their eviction policy's victim-first
// order (the DC's is LRU), so re-inserting them in order reproduces the
// protection order.
type HierarchyState struct {
	HOCBytes    int64            `json:"hoc_bytes"`
	DCBytes     int64            `json:"dc_bytes"`
	HOCEviction string           `json:"hoc_eviction,omitempty"`
	HOC         []ResidentObject `json:"hoc"`
	DC          []ResidentObject `json:"dc"`
	Tracker     *TrackerState    `json:"tracker"`
	Expert      Expert           `json:"expert"`
	ReqIdx      int64            `json:"req_idx"`
	Metrics     Metrics          `json:"metrics"`
	Switches    int64            `json:"expert_switches"`
}

// State snapshots the hierarchy for checkpointing.
func (h *Hierarchy) State() *HierarchyState {
	return &HierarchyState{
		HOCBytes:    h.hocCap,
		DCBytes:     h.dcCap,
		HOCEviction: h.hocName,
		HOC:         h.residents(h.hoc),
		DC:          h.residents(h.dc),
		Tracker:     h.trackerState(),
		Expert:      h.expert,
		ReqIdx:      h.reqIdx,
		Metrics:     h.m,
		Switches:    h.expertSwitches,
	}
}

// residents lists level's objects in its Entries order, reading each id
// through the record slot its handle carries.
func (h *Hierarchy) residents(level Eviction) []ResidentObject {
	out := []ResidentObject{}
	level.Entries(func(slot uint32, size int64) {
		out = append(out, ResidentObject{ID: h.objs.slots[slot].key, Size: size})
	})
	return out
}

// checkLevel is the one rule for a list of resident objects — a level of a
// snapshot, a journal's live set, one level of a donor's residents: no
// negative size (a zero-byte object is served and admitted like any other),
// no id twice, and at most capBytes in all.
func checkLevel(objs []ResidentObject, capBytes int64) error {
	ids := make(map[uint64]struct{}, len(objs))
	var total int64
	for _, o := range objs {
		if o.Size < 0 {
			return fmt.Errorf("object %d has size %d", o.ID, o.Size)
		}
		if _, dup := ids[o.ID]; dup {
			return fmt.Errorf("object %d appears twice", o.ID)
		}
		ids[o.ID] = struct{}{}
		if o.Size > capBytes-total { // not total+o.Size > capBytes, which can wrap
			return fmt.Errorf("entries total over %d bytes", capBytes)
		}
		total += o.Size
	}
	return nil
}

// Validate checks every counter for what serving can produce: no field
// negative, and every request counted as exactly one of a HOC hit, a DC hit
// or a miss.
func (m Metrics) Validate() error {
	for _, c := range m.counters() {
		if *c < 0 {
			return fmt.Errorf("cache: negative counter in metrics %+v", m)
		}
	}
	if m.HOCHits+m.DCHits+m.Misses != m.Requests {
		return fmt.Errorf("cache: metrics count %d hits and misses for %d requests",
			m.HOCHits+m.DCHits+m.Misses, m.Requests)
	}
	return nil
}

// validate checks everything about a shard snapshot that can be judged
// without the hierarchy it is restored into: its shape.
func (st *HierarchyState) validate() error {
	if st == nil {
		return fmt.Errorf("cache: nil hierarchy state")
	}
	if err := checkLevel(st.HOC, st.HOCBytes); err != nil {
		return fmt.Errorf("cache: HOC: %w", err)
	}
	if err := checkLevel(st.DC, st.DCBytes); err != nil {
		return fmt.Errorf("cache: DC: %w", err)
	}
	if st.ReqIdx < 0 || st.Switches < 0 {
		return fmt.Errorf("cache: negative request index %d or expert switches %d", st.ReqIdx, st.Switches)
	}
	if err := st.Tracker.validate(st.ReqIdx); err != nil {
		return err
	}
	return st.Metrics.Validate()
}

// restoredParts holds a restore built before any live field is touched, so
// a snapshot that does not fit can never half-apply.
type restoredParts struct {
	objs    idTable
	hoc, dc Eviction
}

// prepareRestoreState checks st's shape, then that it fits this
// hierarchy, and builds the replacement structures — a fresh record table
// from the tracker, HOC and DC state, and both levels — without mutating
// anything.
func (h *Hierarchy) prepareRestoreState(st *HierarchyState) (restoredParts, error) {
	var parts restoredParts
	if err := st.validate(); err != nil {
		return parts, err
	}
	if st.HOCBytes != h.hocCap || st.DCBytes != h.dcCap {
		return parts, fmt.Errorf("cache: snapshot capacities (hoc=%d dc=%d) do not match engine (hoc=%d dc=%d)",
			st.HOCBytes, st.DCBytes, h.hocCap, h.dcCap)
	}
	if st.HOCEviction != h.hocName {
		return parts, fmt.Errorf("cache: snapshot HOC eviction policy %q does not match engine's %q",
			st.HOCEviction, h.hocName)
	}
	for i, id := range st.Tracker.IDs {
		rec, _, _ := parts.objs.upsert(id)
		rec.count, rec.lastSeen, rec.missed = st.Tracker.Counts[i], st.Tracker.LastSeen[i], st.Tracker.Missed[i]
	}
	parts.hoc = rebuildLevel(&parts.objs, h.hocName, h.hocCap, st.HOC, false)
	parts.dc = rebuildLevel(&parts.objs, "lru", h.dcCap, st.DC, true)
	relink(&parts.objs, parts.hoc, parts.dc)
	return parts, nil
}

// commitRestoreState installs a prepared restore.
func (h *Hierarchy) commitRestoreState(st *HierarchyState, parts restoredParts) {
	h.objs = parts.objs
	h.hoc = parts.hoc
	h.dc = parts.dc
	h.expert = st.Expert
	h.reqIdx = st.ReqIdx
	h.m = st.Metrics
	h.expertSwitches = st.Switches
}

// RestoreState replaces the hierarchy's resident and learned state with a
// snapshot (decoded, or State's own) once it has checked the snapshot's
// shape and fit; on error the hierarchy is unchanged. The DC journal is
// deliberately not written — after a crash the disk log itself is the
// fresher source of DC truth and is reconciled separately via RestoreDC.
func (h *Hierarchy) RestoreState(st *HierarchyState) error {
	parts, err := h.prepareRestoreState(st)
	if err != nil {
		return err
	}
	h.commitRestoreState(st, parts)
	return nil
}

// rebuildLevel reconstructs one level's eviction policy, the hierarchy's
// own, from a checked victim-first entry list, pointing each entry's record
// in objs (the DC's handle when dc is set, else the HOC's) at it. Its
// upserts can grow objs, which moves the records that the levels' handles
// name: the caller relinks once both levels are built.
func rebuildLevel(objs *idTable, name string, capBytes int64, entries []ResidentObject, dc bool) Eviction {
	ev, _ := NewEvictionWithCapacity(name, capBytes) // name is the hierarchy's own policy
	for _, e := range entries {
		rec, slot, _ := objs.upsert(e.ID)
		if dc {
			rec.dc = ev.Insert(e.Size, slot)
		} else {
			rec.hoc = ev.Insert(e.Size, slot)
		}
	}
	return ev
}

// RestoreDC rebuilds only the DC level from a journal's live set, given
// oldest-first: when the set no longer fits (the capacity shrank between
// runs), the oldest entries are dropped, each journaled as a Remove so the
// journal again lists what the DC holds, and the most recently admitted
// objects are kept. Used to reconcile the DC against the disk log after a
// checkpoint restore — the log is always at least as fresh as the
// checkpoint. No metrics are charged. A set checkLevel rejects leaves the
// hierarchy unchanged.
func (h *Hierarchy) RestoreDC(entries []ResidentObject) error {
	if err := checkLevel(entries, math.MaxInt64); err != nil {
		return fmt.Errorf("cache: journal: %w", err)
	}
	// Walk backwards to find the newest suffix that fits.
	var total int64
	start := len(entries)
	for i := len(entries) - 1; i >= 0 && entries[i].Size <= h.dcCap-total; i-- {
		total += entries[i].Size
		start = i
	}
	if h.dclog != nil {
		for _, e := range entries[:start] {
			h.dclog.Remove(e.ID)
		}
	}
	h.objs.each(func(_ uint64, rec *objRec) { rec.dc = noHandle })
	h.dc = rebuildLevel(&h.objs, "lru", h.dcCap, entries[start:], true)
	relink(&h.objs, h.hoc, h.dc)
	return nil
}

// MergeDC folds one level of another node's residents into this
// hierarchy's DC — the drain-handoff merge: each donor entry not already
// resident (either level) is admitted through the normal DC eviction path,
// evicting local victims when capacity demands it, exactly as if the
// inherited traffic had already re-fetched it. A level checkLevel rejects
// is refused before anything is mutated. Given in victim-first order, donor
// protection order is preserved. Admits are journaled (the DC log must
// reflect DC contents) but charge no metrics: a handoff is a transfer, not
// traffic. Returns how many entries were admitted.
func (h *Hierarchy) MergeDC(entries []ResidentObject) (int, error) {
	if err := checkLevel(entries, math.MaxInt64); err != nil {
		return 0, fmt.Errorf("cache: merge: %w", err)
	}
	added := 0
	for _, e := range entries {
		if e.Size > h.dcCap {
			continue
		}
		if h.objs.full() {
			h.grow()
		}
		rec, slot, _ := h.objs.upsert(e.ID)
		if rec.hoc == noHandle && rec.dc == noHandle && h.admitDC(slot, e.Size) {
			added++
		}
	}
	return added, nil
}

// ShardedState is the serialisable form of a Sharded engine: one
// HierarchyState per shard, in shard order.
type ShardedState struct {
	Shards []*HierarchyState `json:"shards"`
}

// State snapshots every shard. Each shard is captured under its own lock;
// the aggregate is per-shard consistent (the same consistency Metrics
// provides), which is exactly what a restart needs.
func (s *Sharded) State() *ShardedState {
	st := &ShardedState{Shards: make([]*HierarchyState, len(s.shards))}
	s.each(func(i int, h *Hierarchy) { st.Shards[i] = h.State() })
	return st
}

// RestoreState restores every shard from a snapshot taken with the same
// shard count. Every shard's shape and fit are checked before any shard is
// mutated, so a snapshot that is malformed or does not fit leaves the
// engine untouched.
func (s *Sharded) RestoreState(st *ShardedState) error {
	if st == nil {
		return fmt.Errorf("cache: no engine state")
	}
	if len(st.Shards) != len(s.shards) {
		return fmt.Errorf("cache: snapshot has %d shards, engine has %d", len(st.Shards), len(s.shards))
	}
	parts := make([]restoredParts, len(s.shards))
	var err error
	s.each(func(i int, h *Hierarchy) {
		if err == nil {
			if parts[i], err = h.prepareRestoreState(st.Shards[i]); err != nil {
				err = fmt.Errorf("cache: shard %d: %w", i, err)
			}
		}
	})
	if err == nil {
		s.each(func(i int, h *Hierarchy) { h.commitRestoreState(st.Shards[i], parts[i]) })
	}
	return err
}

// split routes objs, in order, to their owning shards.
func (s *Sharded) split(objs []ResidentObject) [][]ResidentObject {
	perShard := make([][]ResidentObject, len(s.shards))
	for _, o := range objs {
		i := s.route(o.ID)
		perShard[i] = append(perShard[i], o)
	}
	return perShard
}

// MergeDC folds levels of a donor node's residents into the engine — the
// drain-handoff merge — in order, routing each entry to its owning shard and
// merging under the shard lock. If checkLevel rejects any level, none is
// merged and no shard is mutated. Returns the total entries admitted.
func (s *Sharded) MergeDC(levels ...[]ResidentObject) (int, error) {
	for i, level := range levels {
		if err := checkLevel(level, math.MaxInt64); err != nil {
			return 0, fmt.Errorf("cache: merge: level %d: %w", i, err)
		}
	}
	added := 0
	for _, level := range levels {
		perShard := s.split(level)
		s.each(func(i int, h *Hierarchy) {
			n, _ := h.MergeDC(perShard[i]) // a part of a checked level passes the check
			added += n
		})
	}
	return added, nil
}

// RestoreDC reconciles every shard's DC against a journal live set (given
// oldest-first), routing each entry to its owning shard. A set checkLevel
// rejects leaves every shard unchanged.
func (s *Sharded) RestoreDC(entries []ResidentObject) error {
	if err := checkLevel(entries, math.MaxInt64); err != nil {
		return fmt.Errorf("cache: journal: %w", err)
	}
	perShard := s.split(entries)
	s.each(func(i int, h *Hierarchy) { _ = h.RestoreDC(perShard[i]) }) // a part of a checked set passes the check
	return nil
}
