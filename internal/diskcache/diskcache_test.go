package diskcache

import (
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/cache"
)

func open(t *testing.T, dir string, mut ...func(*Config)) *Store {
	t.Helper()
	cfg := Config{Dir: dir, SegmentBytes: 1 << 20, Sync: SyncOff}
	for _, m := range mut {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutRemoveLiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Put(1, 100)
	s.Put(2, 200)
	s.Put(3, 300)
	s.Remove(2)
	s.Put(1, 150) // size refresh keeps original order slot semantics (re-put is newer)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	defer r.Close()
	live := r.Live()
	if len(live) != 2 {
		t.Fatalf("live = %v, want 2 entries", live)
	}
	// Insertion order: 3 was put before 1's refresh.
	if live[0].ID != 3 || live[0].Size != 300 || live[1].ID != 1 || live[1].Size != 150 {
		t.Fatalf("live = %v, want [{3 300} {1 150}]", live)
	}
	st := r.Stats()
	if st.RecoveredPuts != 4 || st.RecoveredDeletes != 1 {
		t.Fatalf("recovered %d puts / %d deletes, want 4/1", st.RecoveredPuts, st.RecoveredDeletes)
	}
	if st.LiveBytes != 450 {
		t.Fatalf("LiveBytes = %d, want 450", st.LiveBytes)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := uint64(1); i <= 10; i++ {
		s.Put(i, int64(i)*10)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half, as a crash mid-write would.
	torn := data[:len(data)-10]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	live := r.Live()
	if len(live) != 9 {
		t.Fatalf("recovered %d objects, want 9 (torn 10th dropped)", len(live))
	}
	st := r.Stats()
	if st.TruncatedSegments != 1 || st.TruncatedBytes != putRecord-10 {
		t.Fatalf("truncation stats = %d segments / %d bytes, want 1 / %d", st.TruncatedSegments, st.TruncatedBytes, putRecord-10)
	}
	// The store keeps appending after the truncation point.
	r.Put(99, 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, dir)
	defer r2.Close()
	if len(r2.Live()) != 10 {
		t.Fatalf("after reopen live = %d, want 10", len(r2.Live()))
	}
}

func TestRecoveryStopsAtBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := uint64(1); i <= 5; i++ {
		s.Put(i, 10)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the third record: it and everything after it
	// are discarded — corruption is never fatal, never silently accepted.
	data[2*putRecord+recordHeader+3] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	defer r.Close()
	if n := len(r.Live()); n != 2 {
		t.Fatalf("recovered %d objects, want 2 (valid prefix only)", n)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(c *Config) {
		c.SegmentBytes = 10 * putRecord
		c.GCFraction = 0.3
	})
	// Churn one hot id so almost all records are dead.
	for i := 0; i < 100; i++ {
		s.Put(7, int64(100+i))
	}
	s.Put(8, 50)
	st := s.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after 101 appends with 10-record segments")
	}
	if st.Compactions == 0 {
		t.Fatalf("no compactions despite 99%% dead bytes")
	}
	if st.LogBytes > 20*putRecord {
		t.Fatalf("LogBytes = %d after compaction, want bounded", st.LogBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	defer r.Close()
	live := r.Live()
	if len(live) != 2 || live[0].ID != 7 || live[0].Size != 199 || live[1].ID != 8 {
		t.Fatalf("live after compaction = %v, want [{7 199} {8 50}]", live)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncBatch, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, func(c *Config) { c.Sync = pol; c.BatchEvery = 4 })
			for i := uint64(0); i < 10; i++ {
				s.Put(i, 1)
			}
			st := s.Stats()
			switch pol {
			case SyncAlways:
				if st.Syncs != 10 {
					t.Fatalf("Syncs = %d, want 10", st.Syncs)
				}
			case SyncBatch:
				if st.Syncs != 2 {
					t.Fatalf("Syncs = %d, want 2 (10 appends / batch of 4)", st.Syncs)
				}
			case SyncOff:
				if st.Syncs != 0 {
					t.Fatalf("Syncs = %d, want 0", st.Syncs)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"batch", SyncBatch}, {"always", SyncAlways}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("want error for bogus policy")
	}
}

func TestClosedStoreDropsWrites(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Put(1, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Put(2, 2) // must not panic, must be counted
	s.Remove(1)
	if st := s.Stats(); st.DroppedOps != 2 {
		t.Fatalf("DroppedOps = %d, want 2", st.DroppedOps)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err after clean close = %v, want nil", err)
	}
}

func TestOpenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, segmentTempName(3))
	if err := os.WriteFile(tmp, []byte("partial compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
}

func TestStoreImplementsDCLog(t *testing.T) {
	var _ cache.DCLog = (*Store)(nil)
}

// TestPutAllocFree: a journal append at fsync=off — the DC admission's
// hot-path cost — does not allocate once the index and write buffer are warm.
func TestPutAllocFree(t *testing.T) {
	s := open(t, t.TempDir())
	defer s.Close()
	for id := uint64(0); id < 64; id++ {
		s.Put(id, 4096)
	}
	id := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Put(id%64, 4096)
		id++
	}); allocs != 0 {
		t.Fatalf("Put allocates %.1f/op at fsync=off, want 0", allocs)
	}
}

// BenchmarkJournalPut prices a durable DC admission under each fsync policy.
func BenchmarkJournalPut(b *testing.B) {
	for _, pol := range []SyncPolicy{SyncOff, SyncBatch, SyncAlways} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			s, err := Open(Config{Dir: b.TempDir(), Sync: pol})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Put(uint64(i), 4096)
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkJournalRecovery prices a restart: Open replaying a 200k-record
// journal (puts with a delete tail) into the index.
func BenchmarkJournalRecovery(b *testing.B) {
	const records = 200_000
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records*9/10; i++ {
		s.Put(uint64(i), 4096)
	}
	for i := 0; i < records/10; i++ {
		s.Remove(uint64(i))
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(Config{Dir: dir, Sync: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := r.Stats(); st.RecoveredPuts+st.RecoveredDeletes != records {
			b.Fatalf("replayed %d records, want %d", st.RecoveredPuts+st.RecoveredDeletes, records)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(records*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
