package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sharedLoader caches one loader across subtests so the stdlib source
// importer type-checks net/http and friends only once.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// wantRe matches expected-diagnostic annotations: want "regexp". The quoted
// pattern is matched against the diagnostic's "[rule] message" rendering.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// fixturePrefix is the import-path prefix fixture packages are loaded under,
// so the determinism rule can be scoped to them.
const fixturePrefix = "darwin/internal/lint/testdata/"

// TestFixtures golden-checks every analyzer against its testdata package:
// each annotated line must produce a matching diagnostic and no unannotated
// diagnostics may appear. Every rule runs on every fixture, with the
// determinism rule scoped to the fixture's own path.
func TestFixtures(t *testing.T) {
	fixtures := []string{"determinism", "locking", "suppress", "sharding", "lockorder"}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			pkg, diags := runFixture(t, name)
			if len(diags) == 0 {
				t.Fatalf("fixture produced no diagnostics; the rule is dead")
			}

			got := map[int][]string{}
			for _, d := range diags {
				if filepath.Dir(d.Pos.Filename) != pkg.Dir {
					t.Errorf("diagnostic outside fixture: %s", d)
					continue
				}
				got[d.Pos.Line] = append(got[d.Pos.Line], fmt.Sprintf("[%s] %s", d.Rule, d.Msg))
			}
			for line, wants := range fixtureWants(t, pkg.Dir) {
				for _, w := range wants {
					re, err := regexp.Compile(w)
					if err != nil {
						t.Fatalf("line %d: bad want pattern %q: %v", line, w, err)
					}
					idx := -1
					for i, g := range got[line] {
						if re.MatchString(g) {
							idx = i
							break
						}
					}
					if idx < 0 {
						t.Errorf("line %d: want %q, diagnostics there: %v", line, w, got[line])
						continue
					}
					got[line] = append(got[line][:idx], got[line][idx+1:]...)
				}
			}
			for line, rest := range got {
				for _, g := range rest {
					t.Errorf("line %d: unexpected diagnostic %s", line, g)
				}
			}
		})
	}
}

// runFixture loads one testdata package and runs every rule over it.
func runFixture(t *testing.T, name string) (*Package, []Diagnostic) {
	t.Helper()
	l := loader(t)
	pkg, err := l.LoadDirAs(filepath.Join("testdata", name), fixturePrefix+name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	prog := &Program{Fset: l.Fset(), Pkgs: []*Package{pkg}}
	return pkg, Run(prog, Config{DeterminismPkgs: []string{fixturePrefix + name}})
}

// fixtureWants scans a fixture directory for want annotations by line.
func fixtureWants(t *testing.T, dir string) map[int][]string {
	t.Helper()
	wants := map[int][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants[i+1] = append(wants[i+1], m[1])
			}
		}
	}
	return wants
}

// TestRealTreeClean is the gate: the shipped tree must type-check and
// produce zero diagnostics, stale suppressions included, and every
// determinism package must exist (a rename must not silently drop a package
// from the rule).
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	l := loader(t)
	prog, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	cfg := DefaultConfig()
	loaded := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		loaded[pkg.ImportPath] = true
	}
	for _, p := range cfg.DeterminismPkgs {
		if !loaded[p] {
			t.Errorf("determinism package %s is not in the module; config out of date", p)
		}
	}
	for _, d := range Run(prog, cfg) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSuppressionAudit pins the audit pass: the suppress fixture carries one
// well-formed directive that suppresses nothing ("lockorder" on a line with
// no lockorder diagnostic), which must be reported, and nothing else may be.
func TestSuppressionAudit(t *testing.T) {
	_, diags := runFixture(t, "suppress")
	var unused []Diagnostic
	for _, d := range diags {
		if d.Rule == "directive" && strings.Contains(d.Msg, "unused //lint:ignore") {
			unused = append(unused, d)
		}
	}
	if len(unused) != 1 {
		t.Fatalf("found %d unused-suppression diagnostics, want exactly 1: %v", len(unused), diags)
	}
	if !strings.Contains(unused[0].Msg, "lockorder") {
		t.Errorf("unused-suppression diagnostic names the wrong rule: %s", unused[0])
	}
}
