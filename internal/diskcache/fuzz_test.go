package diskcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRecord asserts the record decoder's safety contract on arbitrary
// bytes: it either rejects (ok=false) or returns a record that re-encodes to
// exactly the bytes it consumed. No input may panic.
func FuzzDecodeRecord(f *testing.F) {
	var put, del [recordMax]byte
	pn := encodePut(put[:], 42, 1234)
	dn := encodeDelete(del[:], 42)
	f.Add(put[:pn])
	f.Add(del[:dn])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, recordMax))
	f.Fuzz(func(t *testing.T, data []byte) {
		op, id, size, n, ok := decodeRecord(data)
		if !ok {
			return
		}
		if n < delRecord || n > putRecord || n > len(data) {
			t.Fatalf("accepted record with implausible length %d", n)
		}
		var re [recordMax]byte
		var rn int
		switch op {
		case opPut:
			if size < 0 {
				t.Fatalf("accepted negative size %d", size)
			}
			rn = encodePut(re[:], id, size)
		case opDelete:
			rn = encodeDelete(re[:], id)
		default:
			t.Fatalf("accepted unknown op %d", op)
		}
		if rn != n || !bytes.Equal(re[:rn], data[:n]) {
			t.Fatalf("accepted record does not round-trip")
		}
	})
}

// FuzzOpenLog feeds arbitrary bytes to Open as the journal: recovery must
// never panic and never fail on content corruption — it recovers the valid
// record prefix and truncates the rest. The seeds include a log a
// compaction wrote and a torn one.
func FuzzOpenLog(f *testing.F) {
	var rec [recordMax]byte
	n := encodePut(rec[:], 7, 100)
	f.Add(append(append([]byte{}, rec[:n]...), 0xde, 0xad))
	f.Add([]byte{})
	f.Add(bytes.Repeat(rec[:n], 3))
	compacted := compactedLog(f)
	f.Add(compacted)
	f.Add(compacted[:len(compacted)-putRecord/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir, Sync: SyncOff})
		if err != nil {
			t.Fatalf("Open failed on corrupt log content: %v", err)
		}
		// The surviving store must accept appends and reopen cleanly.
		s.Put(1, 1)
		liveBefore := len(s.Live())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Config{Dir: dir, Sync: SyncOff})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := len(r.Live()); got != liveBefore {
			t.Fatalf("reopen lost state: %d live, want %d", got, liveBefore)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// compactedLog returns the bytes of a journal a compaction rewrote: three
// live objects, then churn on a fourth, on a log checked every four records.
func compactedLog(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncOff, checkBytes: 4 * putRecord})
	if err != nil {
		f.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		s.Put(id, 4096)
	}
	for i := int64(0); i < 12; i++ {
		s.Put(9, 100+i)
	}
	s.Remove(9)
	st := s.Stats()
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	if st.Compactions == 0 {
		f.Fatal("no compaction ran")
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
