package cache

import (
	"fmt"
	"math"

	"darwin/internal/trace"
)

// Result says where a request was served from.
type Result int

// Request outcomes.
const (
	// HOCHit: served from the in-memory Hot Object Cache.
	HOCHit Result = iota
	// DCHit: served from the Disk Cache.
	DCHit
	// Miss: fetched from the origin over the WAN.
	Miss
	// Seen is Lookup's answer for an object the hierarchy holds a record of
	// but has resident at neither level: a miss, but one it has served (or
	// restored) before. Serve never returns it.
	Seen
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case HOCHit:
		return "hoc-hit"
	case DCHit:
		return "dc-hit"
	case Miss:
		return "miss"
	case Seen:
		return "seen"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Metrics accumulates cache performance counters. All byte counters are in
// bytes; the derived-metric methods implement the paper's objectives.
type Metrics struct {
	Requests     int64
	Bytes        int64
	HOCHits      int64
	HOCHitBytes  int64
	DCHits       int64
	DCHitBytes   int64
	Misses       int64
	MissBytes    int64
	DCWrites     int64 // objects admitted to the DC
	DCWriteBytes int64 `metric:"disk_write_bytes"` // bytes written to the DC (SSD endurance driver, §2.2)
	HOCAdmits    int64 // promotions into the HOC
}

// OHR returns the HOC object hit rate, the paper's primary metric.
func (m Metrics) OHR() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.HOCHits) / float64(m.Requests)
}

// TotalOHR returns the combined HOC+DC object hit rate.
func (m Metrics) TotalOHR() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.HOCHits+m.DCHits) / float64(m.Requests)
}

// BMR returns the HOC byte miss ratio: bytes not served from the HOC over
// total bytes (§6.3, Figure 6a).
func (m Metrics) BMR() float64 {
	if m.Bytes == 0 {
		return 0
	}
	return float64(m.Bytes-m.HOCHitBytes) / float64(m.Bytes)
}

// DiskWritesPerRequest returns DC write bytes per request, the resource term
// of the paper's combined objective OHR − k·diskWrites/#requests (§6.3).
func (m Metrics) DiskWritesPerRequest() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.DCWriteBytes) / float64(m.Requests)
}

// counters points at every field of m, in declaration order: Sub, add and
// Validate treat every counter alike.
func (m *Metrics) counters() [11]*int64 {
	return [11]*int64{&m.Requests, &m.Bytes, &m.HOCHits, &m.HOCHitBytes, &m.DCHits, &m.DCHitBytes,
		&m.Misses, &m.MissBytes, &m.DCWrites, &m.DCWriteBytes, &m.HOCAdmits}
}

// Sub returns m − prev, the metrics accumulated since prev was captured.
func (m Metrics) Sub(prev Metrics) Metrics {
	d, p := m.counters(), prev.counters()
	for i := range d {
		*d[i] -= *p[i]
	}
	return m
}

// add folds o into m field by field (the sharded engine's aggregate).
func (m *Metrics) add(o Metrics) {
	d, p := m.counters(), o.counters()
	for i := range d {
		*d[i] += *p[i]
	}
}

// Config parameterises a Hierarchy.
type Config struct {
	// HOCBytes and DCBytes are the level capacities.
	HOCBytes, DCBytes int64
	// HOCEviction names the HOC's eviction policy ("lru" default). The DC
	// is LRU: its journal records admissions and evictions only, and an
	// oldest-first replay of those rebuilds an LRU and nothing else.
	HOCEviction string
	// Expert is the initial HOC admission expert.
	Expert Expert
	// DCLog, when non-nil, receives every DC admission and eviction so a
	// durable store can rebuild the DC after a crash. Nil (the default)
	// keeps the hierarchy fully in-memory with an unchanged hot path.
	DCLog DCLog
}

// Hierarchy is the two-level HOC+DC cache server model (Figure 1 of the
// paper). Requests flow HOC → DC → origin; a DC hit may promote the object
// into the HOC subject to the current admission expert; a miss admits the
// object into the DC only on its second request, which its record answers.
type Hierarchy struct {
	// objs is the one per-object index: every object served since the last
	// ResetCounts (or restored with a count), every one that has ever
	// missed, and every resident one, has exactly one record.
	objs           idTable
	hoc, dc        Eviction
	hocCap, dcCap  int64
	hocName        string
	expert         Expert
	admission      AdmissionFunc
	dclog          DCLog
	reqIdx         int64
	m              Metrics
	expertSwitches int64
}

// objRec is everything the hierarchy knows about one object: the frequency
// and recency knobs' inputs, where it is resident, and whether it has missed
// before. count 0 means "no request seen since the last ResetCounts" (a
// record kept for residency or its mark); hoc and dc are the levels'
// Eviction handles, noHandle when not resident there; each handle carries
// this record's slot back. It is also the id table's slot: key and used are
// the table's.
type objRec struct {
	key      uint64
	count    int
	lastSeen int64 // request index of the latest request; meaningful when count > 0
	hoc, dc  int32
	used     bool
	// missed is set on every miss and cleared nowhere: it is the exact
	// answer to the one-hit-wonder rule's question, "has this id missed
	// before?". ResetCounts and checkpoints keep it.
	missed bool
}

// AdmissionFunc is a custom HOC admission predicate. It receives the
// object's observed request count (including the current request), its size,
// and its age in requests since the previous request (-1 when first seen).
// Baselines with non-threshold admission rules (e.g. AdaptSize's
// probabilistic size filter) install one via SetAdmission. It runs inside
// Serve, on a DC hit and on a full miss (after the origin fetch), and may
// read the hierarchy (Count, HOCVictim) but not change it.
type AdmissionFunc func(count int, size int64, age int64) bool

// New builds a Hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.HOCBytes <= 0 || cfg.DCBytes <= 0 {
		return nil, fmt.Errorf("cache: capacities must be positive (hoc=%d dc=%d)", cfg.HOCBytes, cfg.DCBytes)
	}
	hoc, err := NewEvictionWithCapacity(cfg.HOCEviction, cfg.HOCBytes)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		hoc:     hoc,
		dc:      NewLRU(),
		hocCap:  cfg.HOCBytes,
		dcCap:   cfg.DCBytes,
		hocName: cfg.HOCEviction,
		expert:  cfg.Expert,
		dclog:   cfg.DCLog,
	}, nil
}

// SetExpert swaps the HOC admission expert; Darwin's online phase calls this
// at round and epoch boundaries.
func (h *Hierarchy) SetExpert(e Expert) {
	if e != h.expert {
		h.expertSwitches++
	}
	h.expert = e
}

// Expert returns the currently deployed admission expert.
func (h *Hierarchy) Expert() Expert { return h.expert }

// SetAdmission installs a custom HOC admission predicate that overrides the
// expert thresholds; passing nil restores expert-based admission. Darwin's
// experts promote only on DC hits (Figure 1), but a custom predicate also
// decides on every full miss: AdaptSize-style per-request admission admits
// fetched objects too, which is how one-hit wonders can pollute its HOC
// (§3.2.1).
func (h *Hierarchy) SetAdmission(f AdmissionFunc) { h.admission = f }

// ExpertSwitches returns how many times the deployed expert changed.
func (h *Hierarchy) ExpertSwitches() int64 { return h.expertSwitches }

// Lookup reports where id would be served from right now, mutating no cache
// state, metrics, or frequency tracking: HOCHit or DCHit when resident, Seen
// when id has a record but no residency, Miss when it has no record. The HTTP
// proxy probes residency with Lookup before an origin fetch and commits the
// request through Serve only after the fetch succeeds, so failed fetches never
// produce phantom admissions; Seen is what lets it serve stale when the
// origin is down.
func (h *Hierarchy) Lookup(id uint64) Result {
	switch rec := h.objs.get(id); {
	case rec == nil:
		return Miss
	case rec.hoc != noHandle:
		return HOCHit
	case rec.dc != noHandle:
		return DCHit
	}
	return Seen
}

// Serve processes one request and returns where it was served from. Its
// one table probe is the upsert of the object's record: count, age and both
// levels' residency come from it.
func (h *Hierarchy) Serve(r trace.Request) Result { return h.serve(unplaced, r) }

// ServeRun serves reqs in order: exactly Serve on each.
func (h *Hierarchy) ServeRun(reqs []trace.Request) {
	for _, r := range reqs {
		h.serve(unplaced, r)
	}
}

// unplaced is serve's slot argument for a request whose record it looks up
// itself. No table has math.MaxUint32 + 1 slots.
const unplaced = math.MaxUint32

// grow doubles the record table and re-points every resident handle at its
// record's new slot. An upsert into h.objs runs it first when the table is
// full (upsert would grow it without moving the handles).
func (h *Hierarchy) grow() {
	h.objs.grow()
	relink(&h.objs, h.hoc, h.dc)
}

// relink points every resident object's handles at its record's slot in
// objs: what a table that grew, or one built anew, needs.
func relink(objs *idTable, hoc, dc Eviction) {
	for i := range objs.slots {
		rec := &objs.slots[i]
		if rec.hoc != noHandle {
			hoc.SetSlot(rec.hoc, uint32(i))
		}
		if rec.dc != noHandle {
			dc.SetSlot(rec.dc, uint32(i))
		}
	}
}

// serve is Serve's body for the request whose record is at slot in h.objs:
// a Replay, which lays the records out before it starts, passes each
// request's, and Serve passes unplaced, for serve to upsert it (here rather
// than in Serve, so that Serve inlines and an online request pays one call
// into the body and one into upsert). The record stays put for the whole
// call: nothing below inserts into h.objs (an evicted victim's record is
// reached through the slot its handle carries and cleared in place), so the
// slot array does not move under it.
func (h *Hierarchy) serve(slot uint32, r trace.Request) Result {
	if slot == unplaced {
		if h.objs.full() {
			h.grow()
		}
		_, slot, _ = h.objs.upsert(r.ID)
	}
	rec := &h.objs.slots[slot]
	idx := h.reqIdx
	h.reqIdx++
	age := int64(-1)
	if rec.count > 0 {
		age = idx - rec.lastSeen
	}
	rec.count++
	rec.lastSeen = idx
	count := rec.count

	h.m.Requests++
	h.m.Bytes += r.Size

	if rec.hoc != noHandle {
		h.hoc.Hit(rec.hoc)
		h.m.HOCHits++
		h.m.HOCHitBytes += r.Size
		return HOCHit
	}

	if rec.dc != noHandle {
		h.dc.Hit(rec.dc)
		h.m.DCHits++
		h.m.DCHitBytes += r.Size
		// Promotion into the HOC is governed by the deployed expert (or a
		// custom admission override).
		admit := h.expert.Admit(count, r.Size, age)
		if h.admission != nil {
			admit = h.admission(count, r.Size, age)
		}
		if admit {
			h.admitHOC(slot, r.Size)
		}
		return DCHit
	}

	// Full miss: fetch from origin. DC admission sheds one-hit wonders by
	// admitting only objects that have missed before (§2.2).
	h.m.Misses++
	h.m.MissBytes += r.Size
	again := rec.missed
	rec.missed = true
	if again && h.admitDC(slot, r.Size) {
		h.m.DCWrites++
		h.m.DCWriteBytes += r.Size
	}
	if h.admission != nil && h.admission(count, r.Size, age) {
		h.admitHOC(slot, r.Size)
	}
	return Miss
}

// admitHOC inserts the object whose record is at slot, which is not
// HOC-resident, evicting HOC victims until it fits. Each victim's record is
// cleared through the slot its handle carries, never deleted, so no record
// moves.
func (h *Hierarchy) admitHOC(slot uint32, size int64) {
	if size > h.hocCap {
		return
	}
	for h.hoc.Bytes()+size > h.hocCap {
		v, ok := h.hoc.Victim()
		if !ok {
			return
		}
		h.objs.slots[h.hoc.Slot(v)].hoc = noHandle
		h.hoc.Remove(v)
	}
	h.objs.slots[slot].hoc = h.hoc.Insert(size, slot)
	h.m.HOCAdmits++
}

// admitDC is admitHOC for the DC, journaling every eviction and the
// admission under the id its record holds; it reports whether the object
// was admitted. It charges no metrics (MergeDC admits through it too).
func (h *Hierarchy) admitDC(slot uint32, size int64) bool {
	if size > h.dcCap {
		return false
	}
	for h.dc.Bytes()+size > h.dcCap {
		v, ok := h.dc.Victim()
		if !ok {
			return false
		}
		victim := &h.objs.slots[h.dc.Slot(v)]
		victim.dc = noHandle
		if h.dclog != nil {
			h.dclog.Remove(victim.key)
		}
		h.dc.Remove(v)
	}
	rec := &h.objs.slots[slot]
	rec.dc = h.dc.Insert(size, slot)
	if h.dclog != nil {
		h.dclog.Put(rec.key, size)
	}
	return true
}

// Count returns id's request count since the last ResetCounts (0 when none).
func (h *Hierarchy) Count(id uint64) int {
	if rec := h.objs.get(id); rec != nil {
		return rec.count
	}
	return 0
}

// ResetCounts forgets every object's request history — TinyLFU's window
// aging. Records survive only for resident or missed objects, with count 0,
// which the next Serve reads exactly as a first request: count 1, age -1.
// The missed marks are kept: the one-hit-wonder rule is not windowed.
func (h *Hierarchy) ResetCounts() {
	var objs idTable
	h.objs.each(func(id uint64, rec *objRec) {
		if rec.hoc != noHandle || rec.dc != noHandle || rec.missed {
			r, _, _ := objs.upsert(id)
			r.hoc, r.dc, r.missed = rec.hoc, rec.dc, rec.missed
		}
	})
	relink(&objs, h.hoc, h.dc)
	h.objs = objs
}

// Metrics returns a snapshot of the accumulated counters.
func (h *Hierarchy) Metrics() Metrics { return h.m }

// Concurrent implements Engine: a Hierarchy is single-goroutine only.
func (h *Hierarchy) Concurrent() bool { return false }

// ResetMetrics zeroes the counters without disturbing cache contents. The
// simulator never calls it: warm-up is excluded by subtracting the counters
// at the warm-up mark (baselines.Play, Replay.Hits).
func (h *Hierarchy) ResetMetrics() { h.m = Metrics{} }

// HOCVictim returns the object the HOC eviction policy would evict next —
// used by admission filters (e.g. TinyLFU) that compare a candidate against
// the incumbent victim.
func (h *Hierarchy) HOCVictim() (id uint64, size int64, ok bool) {
	v, ok := h.hoc.Victim()
	if !ok {
		return 0, 0, false
	}
	return h.objs.slots[h.hoc.Slot(v)].key, h.hoc.Size(v), true
}

// SetHOCEviction swaps the HOC eviction policy at runtime, migrating the
// resident objects into the new policy (in the old policy's victim-first
// order, so relative protection is approximately preserved) at their
// records' slots, and re-pointing the records at the new handles. This
// supports the §7 future-work extension — learning eviction decisions with
// the same expert-selection machinery.
func (h *Hierarchy) SetHOCEviction(name string) error {
	next, err := NewEvictionWithCapacity(name, h.hocCap)
	if err != nil {
		return err
	}
	// Insert most-protected objects last so list-based policies place them
	// nearest the MRU end.
	h.hoc.Entries(func(slot uint32, size int64) {
		h.objs.slots[slot].hoc = next.Insert(size, slot)
	})
	h.hoc, h.hocName = next, name
	return nil
}
