package persist

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// tempInfix joins a destination's base name to the random suffix of the
// temp file WriteFileAtomic stages it in: "<base>.tmp-<random>".
const tempInfix = ".tmp-"

// WriteFileAtomic replaces path with data without ever exposing a partial
// file: the bytes are written to a temporary file in the same directory,
// fsynced, and renamed over the destination. Readers observe either the old
// content or the new content, never a torn mix — the invariant every
// artifact writer in this repository (models, checkpoints, BENCH json,
// experiment figures) relies on across crashes.
func WriteFileAtomic(path string, data []byte, perm fs.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempInfix+"*")
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

// RemoveTemps deletes the temp files a crash left behind when it stopped
// WriteFileAtomic(path, ...) before its rename; path itself still holds the
// previous content and is untouched. Call it when opening path's owner,
// before anything writes path: it would also delete a concurrent writer's
// temp file.
func RemoveTemps(path string) error {
	dir, prefix := filepath.Dir(path), filepath.Base(path)+tempInfix
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
