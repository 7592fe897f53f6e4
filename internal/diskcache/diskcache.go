// Package diskcache is the durable disk-cache journal behind the cache
// engine's DC level: one append-only log file whose records are the DC's
// admissions and evictions. The in-memory eviction policy remains the
// authoritative serving index; this log exists so a SIGKILLed proxy can
// rebuild the DC's contents on restart instead of refetching its entire
// working set from the origin (the restart thundering-herd failure mode).
//
// Design points:
//
//   - every record carries length + CRC32 framing (record.go), so recovery
//     replays the log up to the first invalid record and truncates the torn
//     tail — trailing corruption is tolerated, never fatal;
//   - a sparse in-memory index (id → size, insertion order) is rebuilt on
//     Open by replaying the log;
//   - the fsync policy is configurable: per-append (SyncAlways), every 256
//     appends (SyncBatch, the default), or left to the OS (SyncOff) — the
//     durability/throughput trade-off;
//   - after every 16 MiB appended, when more than half of the logged bytes
//     are dead (superseded puts and delete records), compaction rewrites the
//     live set and replaces the log with persist.WriteFileAtomic;
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
	"strconv"
	"sync"

	"darwin/internal/cache"
	"darwin/internal/persist"
)

// logName is the journal's file name inside Config.Dir.
const logName = "journal.log"

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
	// Dir is the journal's directory, created if absent.
	Dir string
	// Sync is the fsync policy.
	Sync SyncPolicy

	// The log's tuning is fixed; only this package's tests shrink it. A zero
	// field takes the default Open fills in.
	//
	// checkBytes is how many bytes are appended between compaction checks
	// (16 MiB).
	checkBytes int64
	// batchEvery is the SyncBatch flush interval in appends (256).
	batchEvery int
	// gcFraction triggers compaction at a check when the dead fraction of
	// logged bytes exceeds it (0.5).
	gcFraction float64
}

// withDefaults returns c with every unset tuning field at its default.
func (c Config) withDefaults() Config {
	if c.checkBytes <= 0 {
		c.checkBytes = 16 << 20
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
	// Appends, Syncs, Compactions count physical log activity.
	Appends, Syncs, Compactions int64
	// RecoveredPuts and RecoveredDeletes count records replayed by Open.
	RecoveredPuts    int64 `metric:"recovered_puts"`
	RecoveredDeletes int64
	// TruncatedBytes is the torn tail Open's recovery scan discarded.
	TruncatedBytes int64
	// LiveObjects and LiveBytes describe the current live set.
	LiveObjects, LiveBytes int64
	// LogBytes is the log file's size.
	LogBytes int64
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
	cfg  Config
	path string

	mu sync.Mutex
	// log is the journal's append handle; guarded by mu.
	log *os.File
	// logBytes is the log file's size; guarded by mu.
	logBytes int64
	// sinceCheck counts bytes appended since the last compaction check;
	// guarded by mu.
	sinceCheck int64
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

// Open replays the journal in cfg.Dir and returns a ready store. A torn or
// corrupt record tail is truncated and counted, never fatal; only real I/O
// errors (unreadable directory or log, failed truncate) fail the open.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("diskcache: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:  cfg,
		path: filepath.Join(cfg.Dir, logName),
		live: make(map[uint64]liveEntry),
	}
	// A compaction interrupted before its rename leaves a temp file; the log
	// it would have replaced is still complete.
	if err := persist.RemoveTemps(s.path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	off := 0
	for {
		op, id, size, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		switch op {
		case opPut:
			s.indexPutLocked(id, size)
			s.stats.RecoveredPuts++
		case opDelete:
			s.indexDeleteLocked(id)
			s.stats.RecoveredDeletes++
		}
		off += n
	}
	if off < len(data) {
		// Torn tail: keep the valid prefix, drop the rest.
		if err := os.Truncate(s.path, int64(off)); err != nil {
			return nil, err
		}
		s.stats.TruncatedBytes = int64(len(data) - off)
	}
	s.logBytes = int64(off)
	if s.log, err = os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	return s, nil
}

// Put journals a DC admission (or size refresh) of id. Implements
// cache.DCLog; called from the cache serve path under the shard lock.
func (s *Store) Put(id uint64, size int64) {
	s.mu.Lock()
	if s.err == nil {
		//lint:ignore lockorder the append fsyncs under s.mu by design: the journal's crash guarantee is "no acked op lost", which needs the sync ordered against concurrent appends; compaction is rare (one check per 16 MiB appended)
		s.appendLocked(encodePut(s.buf[:], id, size))
	}
	if s.err != nil {
		s.stats.DroppedOps++
	} else {
		s.indexPutLocked(id, size)
		s.stats.Puts++
	}
	s.mu.Unlock()
}

// Remove journals a DC eviction of id. Implements cache.DCLog.
func (s *Store) Remove(id uint64) {
	s.mu.Lock()
	if s.err == nil {
		//lint:ignore lockorder the append fsyncs under s.mu by design: the journal's crash guarantee is "no acked op lost", which needs the sync ordered against concurrent appends; compaction is rare (one check per 16 MiB appended)
		s.appendLocked(encodeDelete(s.buf[:], id))
	}
	if s.err != nil {
		s.stats.DroppedOps++
	} else {
		s.indexDeleteLocked(id)
		s.stats.Removes++
	}
	s.mu.Unlock()
}

// indexPutLocked makes id live at size, as the newest entry.
func (s *Store) indexPutLocked(id uint64, size int64) {
	if old, ok := s.live[id]; ok {
		s.liveBytes -= old.size
	}
	s.nextOrder++
	s.live[id] = liveEntry{size: size, order: s.nextOrder}
	s.liveBytes += size
}

// indexDeleteLocked drops id from the live index, if present.
func (s *Store) indexDeleteLocked(id uint64) {
	if old, ok := s.live[id]; ok {
		s.liveBytes -= old.size
		delete(s.live, id)
	}
}

// appendLocked writes the record staged in s.buf[:n] to the log, compacting
// first when a check finds the log mostly dead, then applies the fsync
// policy. The check runs before the write, while the live index still
// matches the log.
func (s *Store) appendLocked(n int) {
	if s.sinceCheck >= s.cfg.checkBytes {
		s.sinceCheck = 0
		if dead := s.logBytes - int64(len(s.live))*putRecord; float64(dead) > s.cfg.gcFraction*float64(s.logBytes) {
			s.compactLocked()
			if s.err != nil {
				return
			}
		}
	}
	if _, err := s.log.Write(s.buf[:n]); err != nil {
		s.err = err
		return
	}
	s.logBytes += int64(n)
	s.sinceCheck += int64(n)
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

// syncLocked fsyncs the log if there are unsynced appends.
func (s *Store) syncLocked() {
	if s.pending == 0 || s.err != nil {
		return
	}
	if err := s.log.Sync(); err != nil {
		s.err = err
		return
	}
	s.pending = 0
	s.stats.Syncs++
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

// compactLocked replaces the log with the live set's put records, in
// insertion order, and reopens it for append. Until WriteFileAtomic's
// rename lands, a crash leaves the old log, which replays to the same state.
func (s *Store) compactLocked() {
	pairs := s.livePairsLocked()
	data := make([]byte, 0, len(pairs)*putRecord)
	var rec [recordMax]byte
	for i := range pairs {
		n := encodePut(rec[:], pairs[i].id, pairs[i].size)
		data = append(data, rec[:n]...)
	}
	if err := persist.WriteFileAtomic(s.path, data, 0o644); err != nil {
		s.err = err
		return
	}
	// The old handle points at the replaced file, whose appends the new log
	// already holds, synced.
	_ = s.log.Close() // the file is unlinked; nothing left to flush
	s.log = nil
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.err = err
		return
	}
	s.log = f
	s.logBytes = int64(len(data))
	s.pending = 0
	s.stats.Compactions++
}

// Sync forces an fsync of the log (checkpoint barriers).
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
	if s.log == nil {
		return s.err
	}
	//lint:ignore lockorder Close holds s.mu across the final fsync so no append can race the handle teardown; the store is quiescing, nothing else contends
	s.syncLocked()
	if err := s.log.Close(); err != nil && s.err == nil {
		s.err = err
	}
	s.log = nil
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
	return st
}
