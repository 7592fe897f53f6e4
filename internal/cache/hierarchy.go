package cache

import (
	"fmt"

	"darwin/internal/bloom"
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

// Sub returns m − prev, the metrics accumulated since prev was captured.
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		Requests:     m.Requests - prev.Requests,
		Bytes:        m.Bytes - prev.Bytes,
		HOCHits:      m.HOCHits - prev.HOCHits,
		HOCHitBytes:  m.HOCHitBytes - prev.HOCHitBytes,
		DCHits:       m.DCHits - prev.DCHits,
		DCHitBytes:   m.DCHitBytes - prev.DCHitBytes,
		Misses:       m.Misses - prev.Misses,
		MissBytes:    m.MissBytes - prev.MissBytes,
		DCWrites:     m.DCWrites - prev.DCWrites,
		DCWriteBytes: m.DCWriteBytes - prev.DCWriteBytes,
		HOCAdmits:    m.HOCAdmits - prev.HOCAdmits,
	}
}

// add folds o into m field by field (the sharded engine's aggregate).
func (m *Metrics) add(o Metrics) {
	m.Requests += o.Requests
	m.Bytes += o.Bytes
	m.HOCHits += o.HOCHits
	m.HOCHitBytes += o.HOCHitBytes
	m.DCHits += o.DCHits
	m.DCHitBytes += o.DCHitBytes
	m.Misses += o.Misses
	m.MissBytes += o.MissBytes
	m.DCWrites += o.DCWrites
	m.DCWriteBytes += o.DCWriteBytes
	m.HOCAdmits += o.HOCAdmits
}

// Config parameterises a Hierarchy.
type Config struct {
	// HOCBytes and DCBytes are the level capacities.
	HOCBytes, DCBytes int64
	// HOCEviction and DCEviction name the eviction policies ("lru" default).
	HOCEviction, DCEviction string
	// Expert is the initial HOC admission expert.
	Expert Expert
	// bloomObjects sizes the DC one-hit-wonder filter; 0 selects a default
	// of one million expected objects. Only NewSharded's per-shard split and
	// the package's tests set it.
	bloomObjects int
	// DCLog, when non-nil, receives every DC admission and eviction so a
	// durable store can rebuild the DC after a crash. Nil (the default)
	// keeps the hierarchy fully in-memory with an unchanged hot path.
	DCLog DCLog
}

// Hierarchy is the two-level HOC+DC cache server model (Figure 1 of the
// paper). Requests flow HOC → DC → origin; a DC hit may promote the object
// into the HOC subject to the current admission expert; a miss admits the
// object into the DC only on its second request (Bloom filter).
type Hierarchy struct {
	// objs is the one per-object index: every object served since the last
	// ResetCounts (or restored with a count), and every resident one, has
	// exactly one record.
	objs            idTable
	hoc, dc         Eviction
	hocCap, dcCap   int64
	hocName, dcName string
	expert          Expert
	admission       AdmissionFunc
	seen            *bloom.Filter
	dclog           DCLog
	admitOnMiss     bool
	reqIdx          int64
	m               Metrics
	expertSwitches  int64
}

// objRec is everything the hierarchy knows about one object: the frequency
// and recency knobs' inputs, where it is resident, and whether its id is in
// the one-hit-wonder filter. count 0 means "no request seen" (a record kept
// only for residency); hoc and dc are the levels' Eviction handles, noHandle
// when not resident there. It is also the id table's slot: key and used are
// the table's.
type objRec struct {
	key      uint64
	count    int
	lastSeen int64 // request index of the latest request; meaningful when count > 0
	hoc, dc  int32
	used     bool
	// inFilter is set once the id has gone through TestAndAddU64 on h.seen.
	// No filter bit is ever cleared, so a later miss is answered "present"
	// without the probes. It is transient: a checkpoint does not carry it,
	// and every table a restore or ResetCounts builds starts without it,
	// which is always exact (the miss just probes again).
	inFilter bool
}

// AdmissionFunc is a custom HOC admission predicate. It receives the
// object's observed request count (including the current request), its size,
// and its age in requests since the previous request (-1 when first seen).
// Baselines with non-threshold admission rules (e.g. AdaptSize's
// probabilistic size filter) install one via SetAdmission. It runs inside
// Serve and may read the hierarchy (Count, HOCVictim) but not change it.
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
	dc, err := NewEvictionWithCapacity(cfg.DCEviction, cfg.DCBytes)
	if err != nil {
		return nil, err
	}
	nBloom := cfg.bloomObjects
	if nBloom <= 0 {
		nBloom = 1 << 20
	}
	return &Hierarchy{
		hoc:     hoc,
		dc:      dc,
		hocCap:  cfg.HOCBytes,
		dcCap:   cfg.DCBytes,
		hocName: cfg.HOCEviction,
		dcName:  cfg.DCEviction,
		expert:  cfg.Expert,
		seen:    bloom.New(nBloom, 0.01),
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
// expert thresholds; passing nil restores expert-based admission.
func (h *Hierarchy) SetAdmission(f AdmissionFunc) { h.admission = f }

// SetAdmitOnMiss also evaluates HOC admission on full misses (after the
// origin fetch), not only on DC hits. Darwin's experts promote only on DC
// hits (Figure 1), but AdaptSize-style per-request admission decides for
// every fetched object — which is how one-hit wonders can pollute its HOC
// (§3.2.1).
func (h *Hierarchy) SetAdmitOnMiss(v bool) { h.admitOnMiss = v }

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
func (h *Hierarchy) Serve(r trace.Request) Result {
	idx := h.reqIdx
	h.reqIdx++
	// rec stays valid for the whole call: nothing below inserts into h.objs
	// (an evicted victim's record is found with get and cleared in place),
	// so the slot array does not move under it.
	rec, _ := h.objs.upsert(r.ID)
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
			h.admitHOC(rec, r.ID, r.Size)
		}
		return DCHit
	}

	// Full miss: fetch from origin. DC admission sheds one-hit wonders by
	// admitting only objects previously recorded in the Bloom filter (§2.2).
	// A record that has been through the filter skips its probes.
	h.m.Misses++
	h.m.MissBytes += r.Size
	known := rec.inFilter
	rec.inFilter = true
	if h.seen.TestAndAddU64(r.ID, known) && h.admitDC(rec, r.ID, r.Size) {
		h.m.DCWrites++
		h.m.DCWriteBytes += r.Size
	}
	if h.admitOnMiss && h.admission != nil && h.admission(count, r.Size, age) {
		h.admitHOC(rec, r.ID, r.Size)
	}
	return Miss
}

// admitHOC inserts id, whose record is rec and which is not HOC-resident,
// evicting HOC victims until it fits. Victims' records are cleared through
// get, never deleted: rec (and any record pointer the caller holds) stays
// valid.
func (h *Hierarchy) admitHOC(rec *objRec, id uint64, size int64) {
	if size > h.hocCap {
		return
	}
	for h.hoc.Bytes()+size > h.hocCap {
		v, ok := h.hoc.Victim()
		if !ok {
			return
		}
		h.objs.get(h.hoc.ID(v)).hoc = noHandle
		h.hoc.Remove(v)
	}
	rec.hoc = h.hoc.Insert(id, size)
	h.m.HOCAdmits++
}

// admitDC is admitHOC for the DC, journaling every eviction and the
// admission; it reports whether id was admitted. It charges no metrics
// (MergeDC admits through it too).
func (h *Hierarchy) admitDC(rec *objRec, id uint64, size int64) bool {
	if size > h.dcCap {
		return false
	}
	for h.dc.Bytes()+size > h.dcCap {
		v, ok := h.dc.Victim()
		if !ok {
			return false
		}
		vid := h.dc.ID(v)
		h.objs.get(vid).dc = noHandle
		h.dc.Remove(v)
		if h.dclog != nil {
			h.dclog.Remove(vid)
		}
	}
	rec.dc = h.dc.Insert(id, size)
	if h.dclog != nil {
		h.dclog.Put(id, size)
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
// aging. Records survive only for resident objects, with count 0, which
// the next Serve reads exactly as a first request: count 1, age -1. The
// filter is kept, and the records' inFilter marks are dropped.
func (h *Hierarchy) ResetCounts() {
	var objs idTable
	h.objs.each(func(id uint64, rec *objRec) {
		if rec.hoc != noHandle || rec.dc != noHandle {
			r, _ := objs.upsert(id)
			r.hoc, r.dc = rec.hoc, rec.dc
		}
	})
	h.objs = objs
}

// Play serves every request in tr.
func (h *Hierarchy) Play(tr *trace.Trace) {
	for _, r := range tr.Requests {
		h.Serve(r)
	}
}

// Metrics returns a snapshot of the accumulated counters.
func (h *Hierarchy) Metrics() Metrics { return h.m }

// Concurrent implements Engine: a Hierarchy is single-goroutine only.
func (h *Hierarchy) Concurrent() bool { return false }

// ResetMetrics zeroes the counters without disturbing cache contents — used
// to exclude warm-up requests from reported results, as the paper does with
// the first 1M requests of every trace.
func (h *Hierarchy) ResetMetrics() { h.m = Metrics{} }

// HOCBytes returns resident HOC bytes (for occupancy assertions in tests).
func (h *Hierarchy) HOCBytes() int64 { return h.hoc.Bytes() }

// DCBytes returns resident DC bytes.
func (h *Hierarchy) DCBytes() int64 { return h.dc.Bytes() }

// HOCLen returns the number of HOC-resident objects.
func (h *Hierarchy) HOCLen() int { return h.hoc.Len() }

// DCLen returns the number of DC-resident objects.
func (h *Hierarchy) DCLen() int { return h.dc.Len() }

// HOCContains reports HOC residency (prototype fast path).
func (h *Hierarchy) HOCContains(id uint64) bool { return h.Lookup(id) == HOCHit }

// HOCVictim returns the object the HOC eviction policy would evict next —
// used by admission filters (e.g. TinyLFU) that compare a candidate against
// the incumbent victim.
func (h *Hierarchy) HOCVictim() (id uint64, size int64, ok bool) {
	v, ok := h.hoc.Victim()
	if !ok {
		return 0, 0, false
	}
	return h.hoc.ID(v), h.hoc.Size(v), true
}

// SetHOCEviction swaps the HOC eviction policy at runtime, migrating the
// resident objects into the new policy (in the old policy's victim-first
// order, so relative protection is approximately preserved) and re-pointing
// their records at the new handles. This supports the §7 future-work
// extension — learning eviction decisions with the same expert-selection
// machinery.
func (h *Hierarchy) SetHOCEviction(name string) error {
	next, err := NewEvictionWithCapacity(name, h.hocCap)
	if err != nil {
		return err
	}
	// Insert most-protected objects last so list-based policies place them
	// nearest the MRU end.
	for _, e := range h.hoc.Entries() {
		h.objs.get(e.ID).hoc = next.Insert(e.ID, e.Size)
	}
	h.hoc, h.hocName = next, name
	return nil
}
