// Command darwinlint runs the repository's custom static-analysis suite (see
// internal/lint): the determinism, hot-path allocation, locking, error-hygiene
// and context-propagation rules, plus the whole-program concurrency and
// durability analyzers (lockorder, atomicmix, persistio, goctx),
// built only on the standard library's go/ast and go/types.
//
// Usage:
//
//	darwinlint [-root dir] [-cache file] [-audit] [-json|-sarif] [patterns...]
//
// Patterns are ./... (the default, whole module) or directory paths like
// ./internal/cache; analysis always covers the whole module (the hot-path and
// lock-order rules need the full call graph), patterns only filter which
// files' diagnostics are reported. Exits 1 when any diagnostic survives
// //lint:ignore suppression.
//
// -cache file enables the content-hash result cache: when no .go file,
// go.mod, or the analyzer configuration changed since the stored run, the
// stored diagnostics are replayed without loading or type-checking anything.
// The cache is whole-tree and all-or-nothing because the whole-program
// analyzers make per-package reuse unsound. Timing for both paths goes to
// stderr.
//
// -audit additionally reports //lint:ignore directives that suppressed
// nothing (stale suppressions). Audit runs bypass the cache.
//
// -json and -sarif switch the report from file:line:col text to a JSON array
// or a SARIF 2.1.0 log on stdout.
//
// -fixture dir runs a single golden-fixture package (a directory under
// internal/lint/testdata) with the rule that fixture exercises — the same
// configuration the fixture tests use. Seeded violations make it exit 1,
// which is how the gate demonstrates each analyzer still fires:
//
//	darwinlint -fixture internal/lint/testdata/lockorder
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"darwin/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
	fixture := flag.String("fixture", "", "run one internal/lint/testdata fixture package instead of the module")
	cachePath := flag.String("cache", "", "content-hash result cache file (relative paths join the module root)")
	audit := flag.Bool("audit", false, "also report stale //lint:ignore directives that suppress nothing")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	flag.Parse()

	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "darwinlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "darwinlint:", err)
			os.Exit(2)
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwinlint:", err)
		os.Exit(2)
	}

	var diags []lint.Diagnostic
	if *fixture != "" {
		diags = runFixture(abs, *fixture)
	} else {
		diags = runModule(abs, *cachePath, *audit)
	}

	// Report paths relative to the module root: stable across checkouts and
	// what both humans and SARIF consumers expect.
	for i := range diags {
		if rel, err := filepath.Rel(abs, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	filters := fileFilters(abs, flag.Args())
	kept := diags[:0]
	for _, d := range diags {
		full := d.Pos.Filename
		if !filepath.IsAbs(full) {
			full = filepath.Join(abs, full)
		}
		if matchesFilter(full, filters) {
			kept = append(kept, d)
		}
	}
	diags = kept

	switch {
	case *jsonOut:
		render(lint.RenderJSON(diags))
	case *sarifOut:
		render(lint.RenderSARIF(diags))
	default:
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runModule analyzes the whole module, consulting the content-hash cache
// when enabled (cache hits replay stored diagnostics without type-checking).
func runModule(abs, cachePath string, audit bool) []lint.Diagnostic {
	cfg := lint.DefaultConfig()
	start := time.Now()

	var key string
	if cachePath != "" && !audit {
		if !filepath.IsAbs(cachePath) {
			cachePath = filepath.Join(abs, cachePath)
		}
		var err error
		key, err = lint.CacheKey(abs, &cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darwinlint:", err)
			os.Exit(2)
		}
		if diags, ok := lint.LoadCache(cachePath, key); ok {
			fmt.Fprintf(os.Stderr, "darwinlint: warm run in %s (content-hash cache hit)\n",
				time.Since(start).Round(time.Millisecond))
			return diags
		}
	}

	loader, err := lint.NewLoader(abs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwinlint:", err)
		os.Exit(2)
	}
	prog, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwinlint:", err)
		os.Exit(2)
	}
	var diags []lint.Diagnostic
	if audit {
		diags = lint.RunAudit(prog, cfg)
	} else {
		diags = lint.Run(prog, cfg)
	}

	if key != "" {
		if err := lint.SaveCache(cachePath, key, diags); err != nil {
			fmt.Fprintln(os.Stderr, "darwinlint: saving cache:", err)
		}
		fmt.Fprintf(os.Stderr, "darwinlint: cold run in %s (cache updated)\n",
			time.Since(start).Round(time.Millisecond))
	}
	return diags
}

// runFixture analyzes one golden-fixture package under the configuration
// that enables exactly its rule.
func runFixture(abs, fixture string) []lint.Diagnostic {
	loader, err := lint.NewLoader(abs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwinlint:", err)
		os.Exit(2)
	}
	name := filepath.Base(filepath.Clean(fixture))
	pkg, err := loader.LoadDirAs(fixture, lint.FixturePrefix+name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwinlint:", err)
		os.Exit(2)
	}
	prog := &lint.Program{Fset: loader.Fset(), Pkgs: []*lint.Package{pkg}}
	return lint.Run(prog, lint.FixtureConfig(name))
}

// render writes a serialized report to stdout, exiting on encoding errors.
func render(data []byte, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwinlint:", err)
		os.Exit(2)
	}
	os.Stdout.Write(data)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// fileFilters converts CLI patterns into absolute directory prefixes; nil
// means report everything.
func fileFilters(root string, patterns []string) []string {
	var filters []string
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == "." {
			return nil
		}
		trimmed := strings.TrimSuffix(p, "/...")
		if !filepath.IsAbs(trimmed) {
			trimmed = filepath.Join(root, trimmed)
		}
		filters = append(filters, filepath.Clean(trimmed))
	}
	return filters
}

// matchesFilter reports whether file lies under any filter directory.
func matchesFilter(file string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if file == f || strings.HasPrefix(file, f+string(filepath.Separator)) {
			return true
		}
	}
	return false
}
