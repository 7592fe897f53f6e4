// Package diskcache is the durable disk-cache journal behind the cache
// engine's DC level: a log-structured store of append-only segment files
// whose records are the DC's admissions and evictions. The in-memory
// eviction policy remains the authoritative serving index; this log exists
// so a SIGKILLed proxy can rebuild the DC's contents on restart instead of
// refetching its entire working set from the origin (the restart
// thundering-herd failure mode).
//
// Design points:
//
//   - every record carries length + CRC32 framing (record.go), so recovery
//     replays each segment up to the first invalid record and truncates the
//     torn tail — trailing corruption is tolerated, never fatal;
//   - a sparse in-memory index (id → size, insertion order) is rebuilt on
//     Open by replaying the segments in sequence order;
//   - the fsync policy is configurable: per-append (SyncAlways), every 256
//     appends (SyncBatch, the default), or left to the OS (SyncOff) — the
//     durability/throughput trade-off;
//   - segments rotate at 16 MiB, and rotation triggers a full compaction
//     when more than half of the logged bytes are dead
//     (superseded puts and delete records), reclaiming space with a
//     crash-safe write-temp-then-rename of the surviving live set;
//   - I/O failures are sticky: the store drops (and counts) subsequent
//     appends rather than erroring the request path — losing durability
//     must degrade recovery, not serving.
//
// Put and Remove are reachable from the cache engine's Serve hot path via
// the cache.DCLog seam, so they must not allocate per call: TestPutAllocFree
// pins Put at fsync=off.
package diskcache

import (
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"darwin/internal/cache"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

// Fsync policies, cheapest first.
const (
	// SyncBatch fsyncs every 256 appends (default): bounded
	// loss window, near-SyncOff throughput.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append: no loss window, every DC write
	// pays a disk flush.
	SyncAlways
	// SyncOff never fsyncs explicitly: the OS flushes on its own schedule;
	// a power failure may lose recent records (a process SIGKILL does not).
	SyncOff
)

// String implements fmt.Stringer ("batch", "always", "off").
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "unknown"
}

// Set implements flag.Value, so -fsync binds straight onto Config.Sync.
func (p *SyncPolicy) Set(s string) (err error) {
	*p, err = ParseSyncPolicy(s)
	return err
}

// ParseSyncPolicy parses the -fsync flag values "batch", "always", "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return SyncBatch, errors.New("diskcache: unknown sync policy " + strconv.Quote(s))
}

// Config parameterises a Store.
type Config struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// Sync is the fsync policy.
	Sync SyncPolicy

	// The log's tuning is fixed; only this package's tests shrink it. A zero
	// field takes the default Open fills in.
	//
	// segmentBytes rotates the active segment past this size (16 MiB).
	segmentBytes int64
	// batchEvery is the SyncBatch flush interval in appends (256).
	batchEvery int
	// gcFraction triggers compaction at rotation when the dead fraction of
	// logged bytes exceeds it (0.5).
	gcFraction float64
}

// withDefaults returns c with every unset tuning field at its default.
func (c Config) withDefaults() Config {
	if c.segmentBytes <= 0 {
		c.segmentBytes = 16 << 20
	}
	if c.batchEvery <= 0 {
		c.batchEvery = 256
	}
	if c.gcFraction <= 0 {
		c.gcFraction = 0.5
	}
	return c
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Puts and Removes count successfully journaled operations.
	Puts, Removes int64
	// DroppedOps counts operations discarded after a sticky I/O failure.
	DroppedOps int64
	// Appends, Syncs, Rotations, Compactions count physical log activity.
	Appends, Syncs, Rotations, Compactions int64
	// RecoveredPuts and RecoveredDeletes count records replayed by Open.
	RecoveredPuts    int64 `metric:"recovered_puts"`
	RecoveredDeletes int64
	// TruncatedSegments and TruncatedBytes describe torn tails discarded by
	// Open's recovery scan.
	TruncatedSegments, TruncatedBytes int64
	// LiveObjects and LiveBytes describe the current live set.
	LiveObjects, LiveBytes int64
	// LogBytes is the total size of all segments; Segments their count.
	LogBytes, Segments int64
}

// liveEntry is one indexed object: its size and a monotone insertion stamp
// so Live can reproduce journal order after recovery and compaction.
type liveEntry struct {
	size  int64
	order int64
}

// errClosed is the sticky error installed by Close.
var errClosed = errors.New("diskcache: store closed")

// Store is the log-structured disk cache journal. All methods are safe for
// concurrent use; Put and Remove implement cache.DCLog.
type Store struct {
	cfg Config
	dir string

	mu sync.Mutex
	// seg is the active segment's append handle; guarded by mu.
	seg *os.File
	// segSeq is the active segment's sequence number; guarded by mu.
	segSeq uint64
	// segBytes counts bytes in the active segment; guarded by mu.
	segBytes int64
	// logBytes counts bytes across all segments; guarded by mu.
	logBytes int64
	// segments lists on-disk segment names in replay order (active last);
	// guarded by mu.
	segments []string
	// live is the sparse in-memory index rebuilt on Open; guarded by mu.
	live map[uint64]liveEntry
	// liveBytes sums live object sizes; guarded by mu.
	liveBytes int64
	// nextOrder stamps insertions for order reconstruction; guarded by mu.
	nextOrder int64
	// pending counts unsynced appends; guarded by mu.
	pending int
	// err is the sticky I/O failure; guarded by mu.
	err error
	// stats accumulates counters; guarded by mu.
	stats Stats
	// buf is the record encode scratch; guarded by mu.
	buf [recordMax]byte
}

// compile-time check: the store plugs into the cache engine's journal seam.
var _ cache.DCLog = (*Store)(nil)

// segmentName renders "seg-<seq padded to 16 digits>.log"; zero padding makes
// lexicographic directory order equal replay order. Built with byte appends
// (not Sprintf or +) because rotation runs inside the serve hot path.
func segmentName(seq uint64) string {
	b := make([]byte, 0, 24)
	b = append(b, "seg-"...)
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	for i := len(d); i < 16; i++ {
		b = append(b, '0')
	}
	b = append(b, d...)
	b = append(b, ".log"...)
	return string(b)
}

// segmentTempName renders segmentName(seq) + ".tmp" with byte appends, for
// the compaction path (hot-path reachable, so no string concatenation).
func segmentTempName(seq uint64) string {
	name := segmentName(seq)
	b := make([]byte, 0, len(name)+4)
	b = append(b, name...)
	b = append(b, ".tmp"...)
	return string(b)
}

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open replays the segment directory and returns a ready store. Torn or
// corrupt record tails are truncated and counted, never fatal; only real
// I/O errors (unreadable directory, failed truncate) fail the open.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("diskcache: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	type segInfo struct {
		name string
		seq  uint64
	}
	var segs []segInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Leftover from a compaction interrupted before its rename;
			// its content is still fully present in the old segments.
			_ = os.Remove(filepath.Join(cfg.Dir, name)) // best-effort cleanup
			continue
		}
		if seq, ok := parseSegmentName(name); ok {
			segs = append(segs, segInfo{name: name, seq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })

	s := &Store{
		cfg:  cfg,
		dir:  cfg.Dir,
		live: make(map[uint64]liveEntry),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, si := range segs {
		path := filepath.Join(s.dir, si.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		off := 0
		for {
			op, id, size, n, ok := decodeRecord(data[off:])
			if !ok {
				break
			}
			switch op {
			case opPut:
				if old, exists := s.live[id]; exists {
					s.liveBytes -= old.size
				}
				s.nextOrder++
				s.live[id] = liveEntry{size: size, order: s.nextOrder}
				s.liveBytes += size
				s.stats.RecoveredPuts++
			case opDelete:
				if old, exists := s.live[id]; exists {
					s.liveBytes -= old.size
					delete(s.live, id)
				}
				s.stats.RecoveredDeletes++
			}
			off += n
		}
		if off < len(data) {
			// Torn tail: keep the valid prefix, drop the rest.
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, err
			}
			s.stats.TruncatedSegments++
			s.stats.TruncatedBytes += int64(len(data) - off)
		}
		s.segments = append(s.segments, si.name)
		s.logBytes += int64(off)
		s.segSeq = si.seq
		s.segBytes = int64(off)
	}
	s.stats.LiveObjects = int64(len(s.live))
	if len(s.segments) == 0 {
		s.segSeq = 1
		s.openSegmentLocked()
	} else {
		// Reopen the last segment for appends.
		f, err := os.OpenFile(filepath.Join(s.dir, s.segments[len(s.segments)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		s.seg = f
	}
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// Put journals a DC admission (or size refresh) of id. Implements
// cache.DCLog; called from the cache serve path under the shard lock.
func (s *Store) Put(id uint64, size int64) {
	s.mu.Lock()
	if s.err != nil {
		s.stats.DroppedOps++
		s.mu.Unlock()
		return
	}
	n := encodePut(s.buf[:], id, size)
	//lint:ignore lockorder rotation fsyncs under s.mu by design: the journal's crash guarantee is "no acked op lost", which needs the sync ordered against concurrent appends; rotation is rare (segment-size amortized)
	s.appendLocked(n)
	if s.err != nil {
		s.stats.DroppedOps++
		s.mu.Unlock()
		return
	}
	if old, ok := s.live[id]; ok {
		s.liveBytes -= old.size
	}
	s.nextOrder++
	s.live[id] = liveEntry{size: size, order: s.nextOrder}
	s.liveBytes += size
	s.stats.Puts++
	s.mu.Unlock()
}

// Remove journals a DC eviction of id. Implements cache.DCLog.
func (s *Store) Remove(id uint64) {
	s.mu.Lock()
	if s.err != nil {
		s.stats.DroppedOps++
		s.mu.Unlock()
		return
	}
	n := encodeDelete(s.buf[:], id)
	//lint:ignore lockorder rotation fsyncs under s.mu by design: the journal's crash guarantee is "no acked op lost", which needs the sync ordered against concurrent appends; rotation is rare (segment-size amortized)
	s.appendLocked(n)
	if s.err != nil {
		s.stats.DroppedOps++
		s.mu.Unlock()
		return
	}
	if old, ok := s.live[id]; ok {
		s.liveBytes -= old.size
		delete(s.live, id)
	}
	s.stats.Removes++
	s.mu.Unlock()
}

// appendLocked writes the record staged in s.buf[:n] to the active segment,
// rotating first if the segment is full, then applies the fsync policy.
func (s *Store) appendLocked(n int) {
	if s.segBytes+int64(n) > s.cfg.segmentBytes && s.segBytes > 0 {
		s.rotateLocked()
		if s.err != nil {
			return
		}
	}
	if _, err := s.seg.Write(s.buf[:n]); err != nil {
		s.err = err
		return
	}
	s.segBytes += int64(n)
	s.logBytes += int64(n)
	s.stats.Appends++
	s.pending++
	switch s.cfg.Sync {
	case SyncAlways:
		s.syncLocked()
	case SyncBatch:
		if s.pending >= s.cfg.batchEvery {
			s.syncLocked()
		}
	}
}

// syncLocked fsyncs the active segment if there are unsynced appends.
func (s *Store) syncLocked() {
	if s.pending == 0 || s.err != nil {
		return
	}
	if err := s.seg.Sync(); err != nil {
		s.err = err
		return
	}
	s.pending = 0
	s.stats.Syncs++
}

// rotateLocked closes the full active segment, compacts the log when its
// dead fraction exceeds gcFraction, and opens a fresh active segment.
func (s *Store) rotateLocked() {
	s.syncLocked()
	if s.err != nil {
		return
	}
	if err := s.seg.Close(); err != nil {
		s.err = err
		return
	}
	s.seg = nil
	s.stats.Rotations++
	dead := s.logBytes - int64(len(s.live))*putRecord
	if s.logBytes > 0 && float64(dead) > s.cfg.gcFraction*float64(s.logBytes) {
		s.compactLocked()
		if s.err != nil {
			return
		}
	}
	s.segSeq++
	s.openSegmentLocked()
}

// openSegmentLocked creates and activates segment s.segSeq.
func (s *Store) openSegmentLocked() {
	name := segmentName(s.segSeq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		s.err = err
		return
	}
	s.seg = f
	s.segBytes = 0
	s.segments = append(s.segments, name)
}

// pair carries one live object through compaction and Live ordering.
type pair struct {
	id    uint64
	size  int64
	order int64
}

// livePairsLocked snapshots the live index in insertion order.
func (s *Store) livePairsLocked() []pair {
	pairs := make([]pair, 0, len(s.live))
	for id, e := range s.live {
		pairs = append(pairs, pair{id: id, size: e.size, order: e.order})
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.order, b.order) })
	return pairs
}

// compactLocked rewrites the entire live set into one fresh segment via
// write-temp-then-rename and deletes the superseded segments. Crash-safe at
// every step: until the rename lands, recovery replays the old segments; if
// an old-segment delete is lost, replaying it before the compacted segment
// reproduces the same state.
func (s *Store) compactLocked() {
	s.segSeq++
	name := segmentName(s.segSeq)
	tmpPath := filepath.Join(s.dir, segmentTempName(s.segSeq))
	f, err := os.Create(tmpPath)
	if err != nil {
		s.err = err
		return
	}
	pairs := s.livePairsLocked()
	var rec [recordMax]byte
	ok := true
	for i := range pairs {
		n := encodePut(rec[:], pairs[i].id, pairs[i].size)
		if _, err := f.Write(rec[:n]); err != nil {
			s.err = err
			ok = false
			break
		}
	}
	if ok {
		if err := f.Sync(); err != nil {
			s.err = err
			ok = false
		}
	}
	if err := f.Close(); err != nil && s.err == nil {
		s.err = err
		ok = false
	}
	if !ok {
		_ = os.Remove(tmpPath) // already failing; best-effort cleanup
		return
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, name)); err != nil {
		s.err = err
		_ = os.Remove(tmpPath) // already failing; best-effort cleanup
		return
	}
	for _, old := range s.segments {
		// Best-effort: a surviving old segment replays before the compacted
		// one and yields the same state.
		_ = os.Remove(filepath.Join(s.dir, old))
	}
	s.segments = s.segments[:0]
	s.segments = append(s.segments, name)
	s.logBytes = int64(len(pairs)) * putRecord
	s.stats.Compactions++
}

// Sync forces an fsync of the active segment (checkpoint barriers).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	//lint:ignore lockorder Sync's contract is "all appends accepted before the call are on disk", so the fsync must serialize against writers under s.mu; callers opt into the stall
	s.syncLocked()
	return s.err
}

// Close fsyncs and closes the store. Subsequent Put/Remove calls are
// dropped and counted.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return s.err
	}
	//lint:ignore lockorder Close holds s.mu across the final fsync so no append can race the handle teardown; the store is quiescing, nothing else contends
	s.syncLocked()
	if err := s.seg.Close(); err != nil && s.err == nil {
		s.err = err
	}
	s.seg = nil
	ret := s.err
	if s.err == nil {
		s.err = errClosed
	}
	return ret
}

// Live returns the recovered/current live set in journal insertion order —
// oldest first, so feeding it to the cache's RestoreDC places the most
// recently admitted objects in the most protected positions.
func (s *Store) Live() []cache.ResidentObject {
	s.mu.Lock()
	pairs := s.livePairsLocked()
	s.mu.Unlock()
	out := make([]cache.ResidentObject, len(pairs))
	for i := range pairs {
		out[i] = cache.ResidentObject{ID: pairs[i].id, Size: pairs[i].size}
	}
	return out
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.LiveObjects = int64(len(s.live))
	st.LiveBytes = s.liveBytes
	st.LogBytes = s.logBytes
	st.Segments = int64(len(s.segments))
	return st
}

// Err returns the sticky I/O failure, nil while healthy, errClosed-wrapped
// state after Close.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(s.err, errClosed) {
		return nil
	}
	return s.err
}
