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

// TestFixtures golden-checks every analyzer against its testdata package:
// each annotated line must produce a matching diagnostic and no unannotated
// diagnostics may appear.
func TestFixtures(t *testing.T) {
	fixtures := []string{
		"determinism", "hotpath", "locking", "errcheck", "ctxfirst", "suppress", "sharding",
		"lockorder", "atomicmix", "persistio", "goctx",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			l := loader(t)
			pkg, err := l.LoadDirAs(filepath.Join("testdata", name), FixturePrefix+name)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			prog := &Program{Fset: l.Fset(), Pkgs: []*Package{pkg}}
			diags := Run(prog, FixtureConfig(name))

			if name != "suppress" {
				// Fixtures seed at least one violation, so the gate must fail
				// on them (the CLI exits non-zero on any diagnostic).
				if len(diags) == 0 {
					t.Fatalf("fixture produced no diagnostics; the rule is dead")
				}
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

// TestRealTreeClean is the verification gate in test form: the shipped tree
// must type-check and produce zero diagnostics under the default config, and
// the hot-path roots must actually resolve (a rename must not silently
// disable the rule).
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

	g := newCallGraph(prog)
	roots := resolveRoots(prog, g, cfg.HotPathRoots)
	if len(roots) < 2 {
		t.Fatalf("hot-path roots resolved to %d functions; config out of date: %v", len(roots), cfg.HotPathRoots)
	}

	// RunAudit is strictly harsher than Run: it also flags suppressions
	// that stopped suppressing anything, so stale //lint:ignore directives
	// fail the gate the same way live violations do.
	for _, d := range RunAudit(prog, cfg) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSuppressionAudit pins the audit pass: the suppress fixture carries one
// well-formed directive that suppresses nothing ("hotpath" on a line with no
// hotpath diagnostic), which must surface in audit mode and only there.
func TestSuppressionAudit(t *testing.T) {
	l := loader(t)
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "suppress"), FixturePrefix+"suppress")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	prog := &Program{Fset: l.Fset(), Pkgs: []*Package{pkg}}
	cfg := FixtureConfig("suppress")

	base := Run(prog, cfg)
	audited := RunAudit(prog, cfg)

	var extra []Diagnostic
	for _, d := range audited {
		if d.Rule == "directive" && strings.Contains(d.Msg, "unused //lint:ignore") {
			extra = append(extra, d)
		}
	}
	if len(extra) != 1 {
		t.Fatalf("audit found %d unused-suppression diagnostics, want exactly 1: %v", len(extra), audited)
	}
	if !strings.Contains(extra[0].Msg, "hotpath") {
		t.Errorf("unused-suppression diagnostic names the wrong rule: %s", extra[0])
	}
	if len(audited) != len(base)+1 {
		t.Errorf("audit must add exactly the unused-directive finding: base %d, audited %d", len(base), len(audited))
	}
}
