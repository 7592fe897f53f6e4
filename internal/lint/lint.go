// Package lint is darwinlint: a repo-specific static-analysis suite built
// only on the standard library's go/parser, go/ast, go/types and go/token.
// It machine-checks the invariants Darwin's results depend on:
//
//   - determinism: no wall-clock reads, no global math/rand, and no map
//     iteration feeding ordered output inside the replay-critical packages —
//     every figure must be bit-reproducible from (trace, seed);
//   - hotpath: no fmt, string concatenation, closure capture or
//     container/list in functions reachable from the cache request loop
//     (Hierarchy.Serve / Sharded.Serve / Eviction.Hit), protecting the
//     0-alloc serve and shard-routing paths;
//   - locking: fields and package vars annotated "guarded by <mu>" are only
//     touched by functions that lock that mutex;
//   - errcheck: no silently discarded error returns in the experiment and
//     server packages;
//   - ctxfirst: exported blocking functions in the concurrency packages take
//     a context.Context as their first parameter;
//   - lockorder: no mutex held across a blocking operation (origin fetch,
//     channel op, fsync, time.Sleep), no double-lock of one mutex, and no
//     lock-order cycles between lock classes;
//   - atomicmix: no field accessed both through sync/atomic and plainly, and
//     no value copies of structs containing mutexes or atomics;
//   - persistio: durable file emission outside the persistence layer routes
//     through persist.WriteFileAtomic, and decoder packages never panic on
//     bad input;
//   - goctx: goroutines spawned in the serving tier have a visible
//     termination path (ctx use, channel op, or WaitGroup.Done).
//
// A diagnostic on line N is suppressed by a directive on line N or N-1:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; malformed directives (including unknown rule
// names) are themselves reported, and RunAudit additionally reports
// directives that suppressed nothing.
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
	// Rule names the analyzer (determinism, hotpath, locking, errcheck,
	// ctxfirst, lockorder, atomicmix, persistio, goctx, directive).
	Rule string
	// Msg describes the violation.
	Msg string
}

// String renders the diagnostic in file:line:col: [rule] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Config scopes each rule to the packages where its invariant holds. Paths
// are import-path prefixes ("darwin/internal/cache" covers the package and
// any subpackages).
type Config struct {
	// DeterminismPkgs are the replay-critical packages: wall-clock reads,
	// global math/rand and order-sensitive map iteration are forbidden there.
	DeterminismPkgs []string
	// HotPathRoots are the entry points of the allocation-free request loop,
	// written "pkgpath.Func" or "pkgpath.Type.Method"
	// (e.g. "darwin/internal/cache.Hierarchy.Serve").
	HotPathRoots []string
	// HotPathCold are functions, written like roots, that the hot-path walk
	// does not enter: the exits a root takes once the request has stopped
	// being a fast-path one (a miss, a shed), and round-boundary learning.
	HotPathCold []string
	// ErrcheckPkgs are packages where discarding an error return is an error.
	ErrcheckPkgs []string
	// CtxFirstPkgs are packages whose exported blocking functions must take a
	// context.Context first.
	CtxFirstPkgs []string
	// LockOrderPkgs are packages whose mutex regions are checked for blocking
	// calls under a held lock, double-locks, and lock-order cycles.
	LockOrderPkgs []string
	// AtomicMixPkgs are packages checked for fields accessed both through
	// sync/atomic and plainly, and for value copies of structs containing
	// mutexes or atomics.
	AtomicMixPkgs []string
	// PersistIOPkgs are packages whose durable file emission must route
	// through persist.WriteFileAtomic; PersistIOExempt carves out the
	// persistence layer itself, which owns the raw file handles.
	PersistIOPkgs   []string
	PersistIOExempt []string
	// DecoderPkgs are the on-disk-format decoder packages: panicking there is
	// forbidden — corrupt bytes must surface as typed errors.
	DecoderPkgs []string
	// GoCtxPkgs are packages whose go statements must spawn goroutines with a
	// visible termination path (ctx use, channel op, or WaitGroup.Done).
	GoCtxPkgs []string
}

// DefaultConfig returns the repository's enforced configuration: the
// determinism boundary, the cache hot path, the concurrency packages, and
// the module-wide concurrency/durability rules.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: []string{
			"darwin/internal/cache",
			"darwin/internal/tracegen",
			"darwin/internal/trace",
			"darwin/internal/exp",
			"darwin/internal/bandit",
			"darwin/internal/neural",
			"darwin/internal/cluster",
			"darwin/internal/gossip",
		},
		HotPathRoots: []string{
			"darwin/internal/cache.Hierarchy.Serve",
			"darwin/internal/cache.Sharded.Serve",
			"darwin/internal/cache.Eviction.Hit",
			// The decider's per-request step: the engine serve plus one atomic
			// decrement in exploit (its boundary work is HotPathCold).
			"darwin/internal/core.Controller.Serve",
			// The serial replay: engine serves per run, the state machine
			// stepped once per run in exploit and per request elsewhere.
			"darwin/internal/core.Controller.Play",
			// The proxy pipeline's hit path: ServeHTTP up to and including the
			// Lookup-hit commit (its miss and shed exits are HotPathCold).
			"darwin/internal/server.Proxy.ServeHTTP",
			"darwin/internal/server.Proxy.fetchPeer",
			"darwin/internal/server.writeBody",
			"darwin/internal/lb.Ring.RouteReplicated",
			"darwin/internal/server.Front.pick",
		},
		HotPathCold: []string{
			"darwin/internal/server.Proxy.serveMiss",
			"darwin/internal/server.Proxy.shed",
			// §6.4: learning runs at warm-up end and round boundaries, off the
			// request fast path.
			"darwin/internal/core.Controller.finishWarmupLocked",
			"darwin/internal/core.Controller.finishRoundLocked",
			"darwin/internal/core.Controller.finishEpochLocked",
		},
		ErrcheckPkgs: []string{
			"darwin/internal/breaker",
			"darwin/internal/diskcache",
			"darwin/internal/exp",
			"darwin/internal/gossip",
			"darwin/internal/lb",
			"darwin/internal/persist",
			"darwin/internal/server",
		},
		CtxFirstPkgs: []string{
			"darwin/internal/node",
			"darwin/internal/par",
			"darwin/internal/server",
		},
		// The concurrency rules hold module-wide: every mutex region, every
		// atomic field.
		LockOrderPkgs: []string{"darwin"},
		AtomicMixPkgs: []string{"darwin"},
		// Durable emission goes through persist.WriteFileAtomic everywhere
		// except the two packages that implement the durability layer and
		// legitimately hold raw file handles.
		PersistIOPkgs:   []string{"darwin"},
		PersistIOExempt: []string{"darwin/internal/persist", "darwin/internal/diskcache"},
		DecoderPkgs: []string{
			"darwin/internal/persist",
			"darwin/internal/diskcache",
			"darwin/internal/core",
		},
		GoCtxPkgs: []string{
			"darwin/internal/server",
			"darwin/internal/par",
			"darwin/internal/core",
			"darwin/internal/gossip",
			"darwin/internal/lb",
			"darwin/internal/cluster",
			"darwin/internal/node",
			"darwin/cmd/darwin-proxy",
			"darwin/cmd/darwin-front",
			"darwin/cmd/origin",
		},
	}
}

// FixturePrefix is the import-path prefix fixture packages are loaded under,
// so per-fixture configs can scope rules to them.
const FixturePrefix = "darwin/internal/lint/testdata/"

// FixtureConfig returns the configuration that enables exactly the rule the
// named testdata fixture exercises (locking always runs; it only fires on
// guarded-by annotations, which other fixtures lack). Shared between the
// golden-fixture tests and darwinlint's -fixture mode.
func FixtureConfig(name string) Config {
	path := FixturePrefix + name
	switch name {
	case "determinism", "suppress":
		return Config{DeterminismPkgs: []string{path}}
	case "hotpath":
		return Config{
			HotPathRoots: []string{path + ".H.Serve", path + ".Ev.Hit"},
			HotPathCold:  []string{path + ".slowExit"},
		}
	case "sharding":
		// The sharded-engine fixture: per-shard guarded-by locking plus the
		// shard-routing Serve path under the hot-path allocation rule.
		return Config{HotPathRoots: []string{path + ".ShardedCache.Serve"}}
	case "errcheck":
		return Config{ErrcheckPkgs: []string{path}}
	case "ctxfirst":
		return Config{CtxFirstPkgs: []string{path}}
	case "lockorder":
		return Config{LockOrderPkgs: []string{path}}
	case "atomicmix":
		return Config{AtomicMixPkgs: []string{path}}
	case "persistio":
		return Config{PersistIOPkgs: []string{path}, DecoderPkgs: []string{path}}
	case "goctx":
		return Config{GoCtxPkgs: []string{path}}
	}
	return Config{}
}

// An analyzer inspects a whole Program and reports diagnostics.
type analyzer struct {
	name string
	run  func(cfg *Config, prog *Program) []Diagnostic
}

// analyzers lists every rule in execution order.
func analyzers() []analyzer {
	return []analyzer{
		{"determinism", runDeterminism},
		{"hotpath", runHotPath},
		{"locking", runLocking},
		{"errcheck", runErrcheck},
		{"ctxfirst", runCtxFirst},
		{"lockorder", runLockOrder},
		{"atomicmix", runAtomicMix},
		{"persistio", runPersistIO},
		{"goctx", runGoCtx},
	}
}

// knownRules is every rule name a //lint:ignore directive may suppress; a
// directive naming anything else can never fire and is reported as
// malformed.
var knownRules = map[string]bool{
	"determinism": true,
	"hotpath":     true,
	"locking":     true,
	"errcheck":    true,
	"ctxfirst":    true,
	"lockorder":   true,
	"atomicmix":   true,
	"persistio":   true,
	"goctx":       true,
}

// Run executes every analyzer over prog, applies //lint:ignore suppressions,
// and returns the surviving diagnostics sorted by position.
func Run(prog *Program, cfg Config) []Diagnostic {
	return run(prog, cfg, false)
}

// RunAudit is Run plus the suppression audit: every well-formed
// //lint:ignore directive that suppressed no diagnostic is stale and
// reported itself, so the suppression inventory can only shrink toward
// directives whose reasons still match the code.
func RunAudit(prog *Program, cfg Config) []Diagnostic {
	return run(prog, cfg, true)
}

func run(prog *Program, cfg Config, audit bool) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers() {
		diags = append(diags, a.run(&cfg, prog)...)
	}
	sup := collectSuppressions(prog)
	diags = append(diags, sup.malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if d.Rule != "directive" && sup.suppressed(d) {
			continue
		}
		kept = append(kept, d)
	}
	if audit {
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
