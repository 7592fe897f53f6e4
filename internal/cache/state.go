package cache

import (
	"fmt"
	"sort"

	"darwin/internal/bloom"
)

// This file is the cache engine's checkpoint/restore seam: every piece of
// per-shard learned and resident state — HOC/DC contents in eviction order,
// the one-hit-wonder Bloom filter, the request counts, metrics, and the
// deployed expert — exports to a plain serialisable struct and restores with
// full validation before any live field is mutated (never half-apply).

// TrackerState is the serialisable form of the request counts: parallel
// IDs/Counts/LastSeen arrays over every record with count > 0, sorted by
// id. Kind is always "exact"; restore rejects anything else before touching
// live state.
type TrackerState struct {
	Kind     string   `json:"kind"`
	IDs      []uint64 `json:"ids,omitempty"`
	Counts   []int    `json:"counts,omitempty"`
	LastSeen []int64  `json:"last_seen,omitempty"`
}

// trackerExact is the one tracker kind the checkpoint format carries.
const trackerExact = "exact"

// trackerState snapshots the request counts, sorted by id for deterministic
// output (the table's slot order is an artefact of its seed and growth
// history). Records with count 0 hold residency only and are not exported:
// HOC and DC carry them.
func (h *Hierarchy) trackerState() *TrackerState {
	ids := make([]uint64, 0, h.objs.len())
	h.objs.each(func(id uint64, rec *objRec) {
		if rec.count > 0 {
			ids = append(ids, id)
		}
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	st := &TrackerState{
		Kind:     trackerExact,
		IDs:      ids,
		Counts:   make([]int, len(ids)),
		LastSeen: make([]int64, len(ids)),
	}
	for i, id := range ids {
		rec := h.objs.get(id)
		st.Counts[i] = rec.count
		st.LastSeen[i] = rec.lastSeen
	}
	return st
}

// HierarchyState is the serialisable form of one Hierarchy (one shard). HOC
// and DC list resident objects in the eviction policy's victim-first order,
// so re-inserting them in order reproduces the protection order.
type HierarchyState struct {
	HOCBytes    int64             `json:"hoc_bytes"`
	DCBytes     int64             `json:"dc_bytes"`
	HOCEviction string            `json:"hoc_eviction,omitempty"`
	DCEviction  string            `json:"dc_eviction,omitempty"`
	HOC         []ResidentObject  `json:"hoc"`
	DC          []ResidentObject  `json:"dc"`
	Seen        bloom.FilterState `json:"seen"`
	Tracker     *TrackerState     `json:"tracker"`
	Expert      Expert            `json:"expert"`
	ReqIdx      int64             `json:"req_idx"`
	Metrics     Metrics           `json:"metrics"`
	Switches    int64             `json:"expert_switches"`
}

// State snapshots the hierarchy for checkpointing.
func (h *Hierarchy) State() *HierarchyState {
	return &HierarchyState{
		HOCBytes:    h.hocCap,
		DCBytes:     h.dcCap,
		HOCEviction: h.hocName,
		DCEviction:  h.dcName,
		HOC:         h.hoc.Entries(),
		DC:          h.dc.Entries(),
		Seen:        h.seen.State(),
		Tracker:     h.trackerState(),
		Expert:      h.expert,
		ReqIdx:      h.reqIdx,
		Metrics:     h.m,
		Switches:    h.expertSwitches,
	}
}

// restoredParts holds a fully validated restore, built before any live field
// is touched so a bad snapshot can never half-apply.
type restoredParts struct {
	objs    idTable
	hoc, dc Eviction
	seen    *bloom.Filter
}

// prepareRestoreState validates st against this hierarchy's configuration
// and builds the replacement structures — a fresh record table from the
// tracker, HOC and DC state, and both levels — without mutating anything.
func (h *Hierarchy) prepareRestoreState(st *HierarchyState) (restoredParts, error) {
	var parts restoredParts
	if st == nil {
		return parts, fmt.Errorf("cache: nil hierarchy state")
	}
	if st.HOCBytes != h.hocCap || st.DCBytes != h.dcCap {
		return parts, fmt.Errorf("cache: snapshot capacities (hoc=%d dc=%d) do not match engine (hoc=%d dc=%d)",
			st.HOCBytes, st.DCBytes, h.hocCap, h.dcCap)
	}
	if st.HOCEviction != h.hocName || st.DCEviction != h.dcName {
		return parts, fmt.Errorf("cache: snapshot eviction policies (%q/%q) do not match engine (%q/%q)",
			st.HOCEviction, st.DCEviction, h.hocName, h.dcName)
	}
	if err := restoreCounts(&parts.objs, st.Tracker); err != nil {
		return parts, err
	}
	var err error
	if parts.hoc, err = rebuildLevel(&parts.objs, h.hocName, h.hocCap, st.HOC, false); err != nil {
		return parts, fmt.Errorf("cache: restoring HOC: %w", err)
	}
	if parts.dc, err = rebuildLevel(&parts.objs, h.dcName, h.dcCap, st.DC, true); err != nil {
		return parts, fmt.Errorf("cache: restoring DC: %w", err)
	}
	if parts.seen, err = bloom.FilterFromState(st.Seen); err != nil {
		return parts, err
	}
	return parts, nil
}

// restoreCounts validates a tracker snapshot and writes its counts into
// objs.
func restoreCounts(objs *idTable, st *TrackerState) error {
	if st == nil {
		return fmt.Errorf("cache: nil tracker state")
	}
	if st.Kind != trackerExact {
		return fmt.Errorf("cache: unknown tracker kind %q", st.Kind)
	}
	if len(st.IDs) != len(st.Counts) || len(st.IDs) != len(st.LastSeen) {
		return fmt.Errorf("cache: exact tracker state arrays disagree (%d/%d/%d)",
			len(st.IDs), len(st.Counts), len(st.LastSeen))
	}
	for i, id := range st.IDs {
		if st.Counts[i] <= 0 {
			return fmt.Errorf("cache: exact tracker state has count %d for id %d", st.Counts[i], id)
		}
		rec, existed := objs.upsert(id)
		if existed {
			return fmt.Errorf("cache: exact tracker state lists id %d twice", id)
		}
		rec.count, rec.lastSeen = st.Counts[i], st.LastSeen[i]
	}
	return nil
}

// commitRestoreState installs a prepared restore.
func (h *Hierarchy) commitRestoreState(st *HierarchyState, parts restoredParts) {
	h.objs = parts.objs
	h.hoc = parts.hoc
	h.dc = parts.dc
	h.seen = parts.seen
	h.expert = st.Expert
	h.reqIdx = st.ReqIdx
	h.m = st.Metrics
	h.expertSwitches = st.Switches
}

// RestoreState replaces the hierarchy's resident and learned state with a
// snapshot. The snapshot is validated in full first; on error the hierarchy
// is unchanged. The DC journal is deliberately not written during restore —
// after a crash the disk log itself is the fresher source of DC truth and is
// reconciled separately via RestoreDC.
func (h *Hierarchy) RestoreState(st *HierarchyState) error {
	parts, err := h.prepareRestoreState(st)
	if err != nil {
		return err
	}
	h.commitRestoreState(st, parts)
	return nil
}

// rebuildLevel reconstructs one eviction policy from a victim-first entry
// list, pointing each entry's record in objs (the DC's handle when dc is
// set, else the HOC's) at it, and rejecting malformed entries, an id listed
// twice, and capacity overflow.
func rebuildLevel(objs *idTable, name string, capBytes int64, entries []ResidentObject, dc bool) (Eviction, error) {
	ev, err := NewEvictionWithCapacity(name, capBytes)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, e := range entries {
		if e.Size <= 0 {
			return nil, fmt.Errorf("object %d has size %d", e.ID, e.Size)
		}
		rec, _ := objs.upsert(e.ID)
		handle := &rec.hoc
		if dc {
			handle = &rec.dc
		}
		if *handle != noHandle {
			return nil, fmt.Errorf("object %d appears twice", e.ID)
		}
		total += e.Size
		if total > capBytes {
			return nil, fmt.Errorf("entries total %d bytes, capacity %d", total, capBytes)
		}
		*handle = ev.Insert(e.ID, e.Size)
	}
	return ev, nil
}

// RestoreDC rebuilds only the DC level from a journal's live set, given
// oldest-first: when the set no longer fits (the capacity shrank between
// runs), the oldest entries are dropped and the most recently admitted
// objects are kept. Used to reconcile the DC against the disk log after a
// checkpoint restore — the log is always at least as fresh as the
// checkpoint. No metrics are charged and nothing is journaled. An id the
// kept suffix lists twice is restored once, at its first position.
func (h *Hierarchy) RestoreDC(entries []ResidentObject) error {
	dc, err := NewEvictionWithCapacity(h.dcName, h.dcCap)
	if err != nil {
		return err
	}
	// Walk backwards to find the newest suffix that fits.
	var total int64
	start := len(entries)
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Size <= 0 {
			return fmt.Errorf("cache: journal entry %d has size %d", entries[i].ID, entries[i].Size)
		}
		if total+entries[i].Size > h.dcCap {
			break
		}
		total += entries[i].Size
		start = i
	}
	h.objs.each(func(_ uint64, rec *objRec) { rec.dc = noHandle })
	for _, e := range entries[start:] {
		if rec, _ := h.objs.upsert(e.ID); rec.dc == noHandle {
			rec.dc = dc.Insert(e.ID, e.Size)
		}
	}
	h.dc = dc
	return nil
}

// MergeDC folds another node's resident set into this hierarchy's DC — the
// drain-handoff merge: each donor entry not already resident (either level)
// is admitted through the normal DC eviction path, evicting local victims
// when capacity demands it, exactly as if the inherited traffic had already
// re-fetched it. Entries are validated in full before anything is mutated.
// Given in victim-first order, donor protection order is preserved. Admits
// are journaled (the DC log must reflect DC contents) but charge no metrics:
// a handoff is a transfer, not traffic. Returns how many entries were
// admitted.
func (h *Hierarchy) MergeDC(entries []ResidentObject) (int, error) {
	for _, e := range entries {
		if e.Size <= 0 {
			return 0, fmt.Errorf("cache: merge entry %d has size %d", e.ID, e.Size)
		}
	}
	added := 0
	for _, e := range entries {
		if e.Size > h.dcCap {
			continue
		}
		rec, _ := h.objs.upsert(e.ID)
		if rec.hoc == noHandle && rec.dc == noHandle && h.admitDC(rec, e.ID, e.Size) {
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Shards[i] = sh.h.State()
		sh.mu.Unlock()
	}
	return st
}

// RestoreState restores every shard from a snapshot taken with the same
// shard count. All shard snapshots are validated before any shard is
// mutated, so a corrupt snapshot leaves the engine untouched.
func (s *Sharded) RestoreState(st *ShardedState) error {
	if st == nil {
		return fmt.Errorf("cache: nil sharded state")
	}
	if len(st.Shards) != len(s.shards) {
		return fmt.Errorf("cache: snapshot has %d shards, engine has %d", len(st.Shards), len(s.shards))
	}
	parts := make([]restoredParts, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		p, err := sh.h.prepareRestoreState(st.Shards[i])
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("cache: shard %d: %w", i, err)
		}
		parts[i] = p
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.h.commitRestoreState(st.Shards[i], parts[i])
		sh.mu.Unlock()
	}
	return nil
}

// MergeDC folds a donor node's resident set into the engine — the
// drain-handoff merge — routing each entry to its owning shard and merging
// under the shard lock. All entries are validated before any shard is
// mutated. Returns the total entries admitted.
func (s *Sharded) MergeDC(entries []ResidentObject) (int, error) {
	for _, e := range entries {
		if e.Size <= 0 {
			return 0, fmt.Errorf("cache: merge entry %d has size %d", e.ID, e.Size)
		}
	}
	perShard := make([][]ResidentObject, len(s.shards))
	for _, e := range entries {
		i := s.route(e.ID)
		perShard[i] = append(perShard[i], e)
	}
	added := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n, err := sh.h.MergeDC(perShard[i])
		sh.mu.Unlock()
		if err != nil {
			return added, fmt.Errorf("cache: shard %d: %w", i, err)
		}
		added += n
	}
	return added, nil
}

// RestoreDC reconciles every shard's DC against a journal live set (given
// oldest-first), routing each entry to its owning shard.
func (s *Sharded) RestoreDC(entries []ResidentObject) error {
	perShard := make([][]ResidentObject, len(s.shards))
	for _, e := range entries {
		i := s.route(e.ID)
		perShard[i] = append(perShard[i], e)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.h.RestoreDC(perShard[i])
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("cache: shard %d: %w", i, err)
		}
	}
	return nil
}
