package darwin_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickStartIsExample keeps the README's quick start the code that
// Example_quickstart runs and checks: its Go block must be a verbatim excerpt
// of the Example's body, dedented by one tab.
func TestQuickStartIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)\n## Quick start\n.*?```go\n(.*?)```").FindSubmatch(readme)
	body := regexp.MustCompile(`(?s)\nfunc Example_quickstart\(\) \{\n(.*?)\n\}\n`).FindSubmatch(src)
	if block == nil || body == nil {
		t.Fatalf("README.md's quick-start Go block found: %v; example_test.go's Example_quickstart found: %v", block != nil, body != nil)
	}
	if !bytes.Contains(block[1], []byte("darwin.NewController(")) {
		t.Fatalf("README.md's quick start no longer runs the controller:\n%s", block[1])
	}
	if dedented := regexp.MustCompile(`(?m)^\t`).ReplaceAll(body[1], nil); !bytes.Contains(dedented, block[1]) {
		t.Errorf("README.md's quick start is not an excerpt of Example_quickstart; copy it from example_test.go")
	}
}

// goneIdents are deleted config fields, flags, make targets, facade names and
// their helpers: the documents may not name them as if they were settable or
// callable. An entry may start with "-", for a flag.
var goneIdents = []string{
	"Resilience.Seed", "BackoffMax", "StaleCap",
	"RetryBudget", "RetryBudgetWindow", "RetryAfter", "BudgetSnapshot",
	"PeerConfig.Breaker", "PeerConfig.Gossip", "FrontConfig.Breaker", "DefaultPeerBreaker",
	"SuspectWeight", "MinSamples",
	"VirtualNodes", "ReplicationConfig",
	"SegmentBytes", "BatchEvery", "GCFraction",
	"FuzzOpenSegment", "journal_segments", "journal_rotations", "journal_truncated_segments",
	"OnlineConfig.Delta", "OnlineConfig.MaxRounds", "Neff", "VarFloor", "InitialExpert", "UniformBandit",
	"bandit.Config.M", "bandit.Config.C", "bandit.Config.Uniform",
	"EvictionSelectorConfig.Policies", "EvictionSelectorConfig.Delta",
	"EvictionSelectorConfig.StabilityRounds", "RewardVariance", "EvictionSelectorConfig.Objective",
	"PredictorHidden", "PredictorTrainer", "TrainAllPairs",
	"DatasetConfig.Features", "DatasetConfig.Parallelism",
	"MaxIter", "cluster.Config.Restarts", "cluster.DefaultConfig",
	"Trainer.LR", "Momentum", "BatchSize", "Trainer.L2",
	"FreqPct", "SizePct", "DeltaF", "MinFreq", "HillClimbingConfig.MinSize",
	"AdaptSizeConfig.Candidates", "InitialC",
	"ErrorStatus", "TruncateFrac", "BloomObjects",
	"lint-audit", "-audit", "-sarif", "-fixture", "darwinlint.cache",
	"HotPathRoots", "HotPathCold", "ErrcheckPkgs", "CtxFirstPkgs", "LockOrderPkgs",
	"AtomicMixPkgs", "PersistIOPkgs", "PersistIOExempt", "DecoderPkgs", "GoCtxPkgs",
	"FixtureConfig", "RunAudit", "RenderJSON", "RenderSARIF",
	"PeerConfig.Clock", "ClientLatency", "-client-latency",
	"internal/bloom", "bloomObjects", "TestAndAddU64", "ContainsU64", "FilterState",
	"NewStaticSharded", "PropagateDeadline", "Overload.Enabled", "Overload.Breaker",
	"WeightSchedule", "LoadFactor", "Config.Readiness", "EvaluateAllParallel", "EvaluateHits", "TaskError",
	"evaluateTrace", "CachedCorpus", "HindsightTrace", "resetHindsightCache",
	"SaveCheckpoint", "LoadCheckpoint", "EncodeCheckpoint", "DecodeCheckpoint", "SaveFrame", "LoadFrame",
	"FlapUp", "FlapDown", "CrashFrac",
	"DCEviction", "StateHandoff", "SetAdmitOnMiss",
	"darwin.Request", "darwin.TraceStats", "darwin.ReadTrace", "darwin.ExpertGrid3", "darwin.DefaultExpertGrid",
	"darwin.Cache", "darwin.CacheResult", "darwin.HOCHit", "darwin.DCHit", "darwin.Miss", "darwin.Seen",
	"darwin.CacheEngine", "darwin.ShardedCache", "darwin.NewShardedCache", "darwin.AutoShards", "darwin.EvaluateAll",
	"darwin.FeatureConfig", "darwin.DefaultFeatureConfig", "darwin.FeatureExtractor", "darwin.NewFeatureExtractor",
	"darwin.Dataset", "darwin.Model", "darwin.BMRObjective", "darwin.ObjectiveByName", "darwin.DefaultOnlineConfig",
	"darwin.Controller", "darwin.EpochDiag", "darwin.WriteModel", "darwin.ReadModel", "darwin.OfflineOptimalOHR",
	"darwin.EvictionSelectorConfig", "darwin.EvictionSelector", "darwin.NewEvictionSelector",
	"darwin.BanditConfig", "darwin.Bandit", "darwin.NewBandit",
	"darwin.TrafficClass", "darwin.ImageClass", "darwin.DownloadClass", "darwin.WebClass", "darwin.VideoClass",
	"darwin.ScanClass", "darwin.MixConfig", "darwin.GenerateTrace", "darwin.LoadBalancer", "darwin.NewLoadBalancer",
	"darwin.Origin", "darwin.Proxy", "darwin.NewProxy", "darwin.DefaultResilience", "darwin.DefaultOverload",
	"darwin.LoadConfig", "darwin.LoadResult", "darwin.RunLoad", "tracegen.ByName",
	"-mode", "node.Config.Train", "Checkpoint.Model", "checkpointJSON", "modelToJSON", "modelFromJSON",
	"neural.ReLU", "neural.Identity", "reusing trained model from checkpoint",
	"Eviction.ID", "Eviction.Len",
	"AdoptState", "controllerAhead", "Summarize",
	"ShardedState.Validate", "bandit.State.Validate",
	"bandit.Algorithm", "bandit.New", "Algorithm.SetState",
	"ServeGossip", "maxGossipBytes", "TestServeGossip",
	"exploitLeft", "reserveExploit", "serveLocked", "statStripes", "statStripe", "newCounters", "SyntheticMix",
}

// TestDocsNameLiveCommands keeps a deletion from orphaning the documents: a
// `cmd/<name>`, `make <target>`, `go run ./<path>` or `Benchmark<X>` named in
// a Markdown file or the Makefile must exist in the tree, and no goneIdents
// entry may be named at all. The one way to mention something gone is a
// paragraph that says so — "historical" or "deleted" — and cites the commit
// that still has it.
func TestDocsNameLiveCommands(t *testing.T) {
	skip := map[string]bool{
		"CHANGES.md":  true, // the log of past PRs: it names what each one deleted
		"ROADMAP.md":  true, // history notes and plans name things gone or not yet built
		"ISSUE.md":    true, // the current PR's task text names what it is about to delete
		"REVIEW.md":   true, // a reviewer's notes on one PR, same reason
		"PAPER.md":    true, // the source paper's abstract, not a description of this tree
		"PAPERS.md":   true, // related work, not a description of this tree
		"SNIPPETS.md": true, // exemplar code from other repositories
		// benchmark/README.md is not matched at all: BENCHMARK.json freezes that
		// directory, and its cmd/bench paragraph waits for the next benchmark/ PR.
	}
	docs, benchmarks, targets := map[string]string{}, map[string]bool{}, map[string]bool{}
	benchDecl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	for _, pattern := range []string{"Makefile", "*.md", ".claude/skills/*/*.md", "*/*/*_test.go"} {
		paths, _ := filepath.Glob(pattern) // the patterns are well-formed
		for _, path := range paths {
			if skip[path] {
				continue
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range benchDecl.FindAllSubmatch(b, -1) {
				benchmarks[string(m[1])] = true
			}
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			// A line of a fenced block is code as much as a backticked span
			// is: give it the backtick, so one pattern finds both and prose
			// that happens to say "make it" is never read as a target.
			lines, fenced := strings.Split(string(b), "\n"), false
			for i, line := range lines {
				if strings.HasPrefix(strings.TrimSpace(line), "```") {
					fenced = !fenced
				} else if fenced {
					lines[i] = "`" + strings.TrimSpace(line)
				}
			}
			docs[path] = strings.Join(lines, "\n")
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllStringSubmatch(docs["Makefile"], -1) {
		targets[m[1]] = true
	}
	if len(docs) < 5 || len(targets) == 0 || len(benchmarks) == 0 {
		t.Fatalf("scanned %d documents, %d make targets, %d benchmarks: not at the repository root?", len(docs), len(targets), len(benchmarks))
	}

	isDir := func(p string) bool {
		st, err := os.Stat(p)
		return err == nil && st.IsDir()
	}
	gone := make([]string, len(goneIdents))
	for i, id := range goneIdents {
		gone[i] = regexp.QuoteMeta(id)
	}
	checks := []struct {
		re   *regexp.Regexp
		live func(name string) bool
	}{
		{regexp.MustCompile(`\bcmd/([a-z][a-z0-9-]*)`), func(n string) bool { return isDir("cmd/" + n) }},
		{regexp.MustCompile("`make ([a-z][\\w-]*)"), func(n string) bool { return targets[n] }},
		{regexp.MustCompile(`go run \./([\w/.-]+)`), func(n string) bool { return isDir(n) }},
		{regexp.MustCompile(`\b(Benchmark[A-Z]\w*)`), func(n string) bool { return benchmarks[n] }},
		{regexp.MustCompile(`(?:^|[^\w-])(` + strings.Join(gone, "|") + `)\b`), func(string) bool { return false }},
	}
	historical := regexp.MustCompile("(?is)(historical|deleted).*`[0-9a-f]{7,40}`|`[0-9a-f]{7,40}`.*(historical|deleted)")
	for path, text := range docs {
		for _, para := range strings.Split(text, "\n\n") {
			if historical.MatchString(para) {
				continue
			}
			for _, c := range checks {
				for _, m := range c.re.FindAllStringSubmatch(para, -1) {
					if !c.live(m[1]) {
						t.Errorf("%s names %q, which does not exist (delete the mention, or mark the paragraph historical with the commit that has it)", path, strings.TrimSpace(m[0]))
					}
				}
			}
		}
	}
}
