package persist

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data without ever exposing a partial
// file: the bytes are written to a temporary file in the same directory,
// fsynced, and renamed over the destination. Readers observe either the old
// content or the new content, never a torn mix — the invariant every
// artifact writer in this repository (models, checkpoints, BENCH json,
// experiment figures) relies on across crashes.
func WriteFileAtomic(path string, data []byte, perm fs.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// Any failure below removes the temp file; the destination is untouched.
	fail := func(op string, err error) error {
		_ = tmp.Close()        // already failing; surface the first error
		_ = os.Remove(tmpName) // best-effort cleanup of the orphaned temp
		return fmt.Errorf("persist: %s for %s: %w", op, path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("writing temp", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod temp", err)
	}
	// Sync before rename: the rename must never promote bytes that are not
	// yet durable, or a crash could atomically install a hollow file.
	if err := tmp.Sync(); err != nil {
		return fail("syncing temp", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("closing temp", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup of the orphaned temp
		return fmt.Errorf("persist: renaming into %s: %w", path, err)
	}
	// Sync the directory so the rename itself survives a crash. Best-effort:
	// some filesystems reject directory fsync, and the data rename above has
	// already succeeded.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()  // best-effort; see above
		_ = d.Close() // read-only handle; nothing to flush
	}
	return nil
}

// SaveFrame atomically writes a single-frame artifact file: payload wrapped
// in the magic/version/checksum frame, installed with WriteFileAtomic.
func SaveFrame(path, magic string, version uint32, payload []byte, perm fs.FileMode) error {
	buf := make([]byte, 0, headerLen+len(payload))
	w := &appendWriter{buf: buf}
	if err := EncodeFrame(w, magic, version, payload); err != nil {
		return err
	}
	return WriteFileAtomic(path, w.buf, perm)
}

// LoadFrame reads a single-frame artifact file written by SaveFrame,
// returning the verified payload. A missing file returns the os.Open error
// (matchable with os.IsNotExist); a present-but-invalid file returns a
// *FormatError.
func LoadFrame(path, magic string, version uint32) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeFrame(f, magic, version)
}

// appendWriter is an error-free in-memory io.Writer over an append slice.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
