// Package lint is darwinlint: a repo-specific static-analysis suite built
// only on the standard library's go/parser, go/ast, go/types and go/token.
// It checks the three invariants no runtime test sees unless a run happens to
// exercise the violating path:
//
//   - determinism: no wall-clock reads, no global math/rand, and no map
//     iteration feeding ordered output inside the replay-critical packages —
//     every figure must be bit-reproducible from (trace, seed);
//   - locking: fields and package vars annotated "guarded by <mu>" are only
//     touched by functions that lock that mutex;
//   - lockorder: no mutex held across a blocking operation (origin fetch,
//     channel op, fsync, time.Sleep), no double-lock of one mutex, and no
//     lock-order cycles between lock classes.
//
// There is no command: TestRealTreeClean runs the suite over the whole module
// on every `go test ./...`.
//
// A diagnostic on line N is suppressed by a directive on line N or N-1:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory. Malformed directives (including unknown rule
// names) are themselves reported, and so are directives that suppress
// nothing, so a stale exception fails the run like a live violation.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the analyzer (determinism, locking, lockorder, directive).
	Rule string
	// Msg describes the violation.
	Msg string
}

// String renders the diagnostic in file:line:col: [rule] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Config scopes the determinism rule; locking and lockorder hold for every
// package they are run over.
type Config struct {
	// DeterminismPkgs are the replay-critical packages, as import-path
	// prefixes ("darwin/internal/cache" covers the package and any
	// subpackages): wall-clock reads, global math/rand and order-sensitive map
	// iteration are forbidden there.
	DeterminismPkgs []string
}

// DefaultConfig returns the repository's enforced configuration: every
// package between trace generation and report emission.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: []string{
			"darwin/internal/bandit",
			"darwin/internal/baselines",
			"darwin/internal/cache",
			"darwin/internal/cluster",
			"darwin/internal/core",
			"darwin/internal/exp",
			"darwin/internal/features",
			"darwin/internal/gossip",
			"darwin/internal/neural",
			"darwin/internal/stats",
			"darwin/internal/trace",
			"darwin/internal/tracegen",
		},
	}
}

// analyzers lists every rule in execution order.
var analyzers = []struct {
	name string
	run  func(cfg *Config, prog *Program) []Diagnostic
}{
	{"determinism", runDeterminism},
	{"locking", runLocking},
	{"lockorder", runLockOrder},
}

// knownRules is every rule name a //lint:ignore directive may suppress; a
// directive naming anything else can never fire and is reported as
// malformed.
var knownRules = map[string]bool{
	"determinism": true,
	"locking":     true,
	"lockorder":   true,
}

// Run executes every analyzer over prog, applies //lint:ignore suppressions,
// and returns the surviving diagnostics sorted by position. A well-formed
// directive that suppressed no diagnostic is stale and reported itself, so
// the suppression inventory can only shrink toward directives whose reasons
// still match the code.
func Run(prog *Program, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.run(&cfg, prog)...)
	}
	sup := collectSuppressions(prog)
	kept := sup.malformed
	for _, d := range diags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	for _, dir := range sup.directives {
		if dir.used {
			continue
		}
		kept = append(kept, Diagnostic{
			Pos:  dir.pos,
			Rule: "directive",
			Msg: fmt.Sprintf("unused //lint:ignore %s suppression: no diagnostic here to suppress (stale; remove it)",
				strings.Join(dir.rules, ",")),
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return kept
}

// hasPrefixPath reports whether importPath is path or a subpackage of any
// entry in prefixes.
func hasPrefixPath(importPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// directive is one well-formed //lint:ignore comment; used flips when it
// suppresses a diagnostic, and the audit reports the ones that never did.
type directive struct {
	pos   token.Position
	rules []string
	used  bool
}

// suppressions maps file:line to the directives active there.
type suppressions struct {
	byLine     map[string]map[int][]*directive
	directives []*directive
	malformed  []Diagnostic
}

// parseIgnoreDirective parses one comment's text. matched reports whether
// the comment is a //lint:ignore directive at all; when it is, rules (comma
// separated, "*" wildcard allowed) and the mandatory reason are returned,
// with errMsg non-empty when the directive is malformed (missing parts or an
// unknown rule name).
func parseIgnoreDirective(text string) (rules []string, reason string, matched bool, errMsg string) {
	rest, matched := strings.CutPrefix(text, "//lint:ignore")
	if !matched {
		return nil, "", false, ""
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, "", true, "need a rule name and a reason"
	}
	rules = strings.Split(fields[0], ",")
	for _, r := range rules {
		if r != "*" && !knownRules[r] {
			return rules, "", true, fmt.Sprintf("unknown rule %q", r)
		}
	}
	return rules, strings.Join(fields[1:], " "), true, ""
}

// collectSuppressions scans every comment group for //lint:ignore directives.
func collectSuppressions(prog *Program) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*directive)}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, _, matched, errMsg := parseIgnoreDirective(c.Text)
					if !matched {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					if errMsg != "" {
						s.malformed = append(s.malformed, Diagnostic{
							Pos:  pos,
							Rule: "directive",
							Msg:  "malformed //lint:ignore directive: " + errMsg,
						})
						continue
					}
					if s.byLine[pos.Filename] == nil {
						s.byLine[pos.Filename] = make(map[int][]*directive)
					}
					dir := &directive{pos: pos, rules: rules}
					s.byLine[pos.Filename][pos.Line] = append(s.byLine[pos.Filename][pos.Line], dir)
					s.directives = append(s.directives, dir)
				}
			}
		}
	}
	return s
}

// suppressed reports whether d is covered by a directive on its own line or
// the line directly above it, marking the matching directive used.
func (s *suppressions) suppressed(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[line] {
			for _, rule := range dir.rules {
				if rule == d.Rule || rule == "*" {
					dir.used = true
					return true
				}
			}
		}
	}
	return false
}
