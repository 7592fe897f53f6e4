package darwin_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"darwin"
)

// TestEndToEndPublicAPI exercises the documented quick-start flow through
// the public façade only.
func TestEndToEndPublicAPI(t *testing.T) {
	experts := darwin.ExpertGrid([]int{1, 3, 5}, []int64{2 << 10, 20 << 10, 200 << 10})
	eval := darwin.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1}

	// Offline: historical traces → dataset → model.
	var train []*darwin.Trace
	for _, pct := range []int{0, 50, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := darwin.ImageDownloadMix(pct, 8000, 600+seed+int64(pct))
			if err != nil {
				t.Fatal(err)
			}
			train = append(train, tr)
		}
	}
	ds, err := darwin.BuildDataset(train, darwin.DatasetConfig{
		Experts:       experts,
		Eval:          eval,
		FeatureWindow: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := darwin.Train(ds, darwin.TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Online: controller over a fresh cache.
	hier, err := darwin.NewCache(darwin.CacheConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := darwin.NewController(model, hier, darwin.OnlineConfig{
		Epoch: 12000, Warmup: 800, Round: 300, Delta: 0.05, StabilityRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := darwin.ImageDownloadMix(100, 12000, 999)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range live.Requests {
		ctrl.Serve(r)
	}
	m := ctrl.Metrics()
	if m.Requests != int64(live.Len()) {
		t.Fatalf("requests = %d", m.Requests)
	}
	if len(ctrl.Diags()) == 0 {
		t.Fatal("no epochs recorded")
	}
	if m.OHR() <= 0 {
		t.Fatal("no hits at all")
	}
}

func TestPublicObjectives(t *testing.T) {
	for _, name := range []string{"ohr", "bmr", "combined"} {
		if _, err := darwin.ObjectiveByName(name); err != nil {
			t.Fatalf("ObjectiveByName(%q): %v", name, err)
		}
	}
	var m darwin.CacheMetrics
	m.Requests, m.HOCHits = 10, 5
	if (darwin.OHRObjective{}).Reward(m) != 0.5 {
		t.Fatal("OHR objective broken through façade")
	}
}

func TestPublicTraceHelpers(t *testing.T) {
	a, err := darwin.ImageDownloadMix(50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := darwin.ImageDownloadMix(50, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	joined := darwin.ConcatTraces("j", a, b)
	if joined.Len() != 200 {
		t.Fatalf("Concat len = %d", joined.Len())
	}
	s := joined.Summarize()
	if s.Requests != 200 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPublicExpertGrid(t *testing.T) {
	if len(darwin.DefaultExpertGrid()) != 36 {
		t.Fatal("default grid should have 36 experts")
	}
	g3 := darwin.ExpertGrid3([]int{1}, []int64{10}, []int64{5, 6})
	if len(g3) != 2 {
		t.Fatal("3-knob grid wrong")
	}
}

// TestDocsNameLiveCommands keeps a deletion from orphaning the documents: a
// `cmd/<name>`, `make <target>`, `go run ./<path>` or `Benchmark<X>` named in
// a Markdown file or the Makefile must exist in the tree. The one way to
// mention something gone is a paragraph that says so — "historical" or
// "deleted" — and cites the commit that still has it.
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
	checks := []struct {
		re   *regexp.Regexp
		live func(name string) bool
	}{
		{regexp.MustCompile(`\bcmd/([a-z][a-z0-9-]*)`), func(n string) bool { return isDir("cmd/" + n) }},
		{regexp.MustCompile("`make ([a-z][\\w-]*)"), func(n string) bool { return targets[n] }},
		{regexp.MustCompile(`go run \./([\w/.-]+)`), func(n string) bool { return isDir(n) }},
		{regexp.MustCompile(`\b(Benchmark[A-Z]\w*)`), func(n string) bool { return benchmarks[n] }},
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
