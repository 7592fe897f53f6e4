package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"darwin/internal/persist"
)

// cacheVersion invalidates every stored cache when the analyzer set or the
// cache format changes; bump it alongside any analyzer semantics change.
const cacheVersion = "darwinlint-cache-v3"

// The cache is whole-tree and all-or-nothing: the whole-program analyzers
// (hotpath's call graph, lockorder's blocking propagation, goctx) make
// per-package reuse unsound — an edit in one package can change diagnostics
// in another. Hashing every source file is still ~100x cheaper than
// type-checking them, which is where a cold run spends its time.

// cacheFile is the on-disk shape.
type cacheFile struct {
	Key         string           `json:"key"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

// CacheKey derives a content hash over everything that can change a lint
// run's output: the cache format version, the configuration, go.mod, and
// every non-test .go file the loader would read (same skip rules as
// LoadAll). File paths are hashed relative to root so moving the checkout
// does not invalidate the cache.
func CacheKey(root string, cfg *Config) (string, error) {
	h := sha256.New()
	io.WriteString(h, cacheVersion)
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	h.Write(cfgJSON)

	var files []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name == "go.mod" || isSourceFile(d) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return "", err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// LoadCache returns the cached diagnostics if path holds a cache written
// for exactly this key. Any read, decode, or key mismatch is a cache miss,
// never an error: the caller falls back to a cold run.
func LoadCache(path, key string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var cf cacheFile
	if err := json.Unmarshal(data, &cf); err != nil || cf.Key != key {
		return nil, false
	}
	diags := make([]Diagnostic, 0, len(cf.Diagnostics))
	for _, jd := range cf.Diagnostics {
		d := Diagnostic{Rule: jd.Rule, Msg: jd.Message}
		d.Pos.Filename = jd.File
		d.Pos.Line = jd.Line
		d.Pos.Column = jd.Column
		diags = append(diags, d)
	}
	return diags, true
}

// SaveCache stores diagnostics under key, atomically — a partially-written
// cache would otherwise poison every later warm run.
func SaveCache(path, key string, diags []Diagnostic) error {
	cf := cacheFile{Key: key, Diagnostics: make([]jsonDiagnostic, 0, len(diags))}
	for _, d := range diags {
		cf.Diagnostics = append(cf.Diagnostics, jsonDiagnostic{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Msg,
		})
	}
	data, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
