package server_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"darwin/internal/diskcache"
	"darwin/internal/lb"
	"darwin/internal/server"
)

// configSurface is every exported field of the serving tier's config structs,
// nested configs expanded. A field here is a knob some caller other than a
// test sets to more than one value, or a flag sets; everything else is a
// constant in the package that uses it. Gossip.Nodes and Gossip.Self are
// listed but not settable: NewFront overwrites them.
var configSurface = []string{
	"server.Resilience.MaxAttempts",
	"server.Resilience.FetchTimeout",
	"server.Resilience.BackoffBase",
	"server.Resilience.Coalesce",
	"server.Resilience.ServeStale",

	"server.Overload.Clock",
	"server.Overload.BreakerThreshold",
	"server.Overload.BreakerOpenFor",
	"server.Overload.MaxInFlight",
	"server.Overload.MinFetchBudget",
	"server.Overload.Hedge",

	"server.PeerConfig.Self",
	"server.PeerConfig.Nodes",
	"server.PeerConfig.FetchTimeout",

	"server.FrontConfig.Backends",
	"server.FrontConfig.RebalanceEvery",
	"server.FrontConfig.ProbeEvery",
	"server.FrontConfig.ProbeTimeout",
	"server.FrontConfig.Client",
	"server.FrontConfig.Gossip.Nodes",
	"server.FrontConfig.Gossip.Self",
	"server.FrontConfig.Gossip.HeartbeatEvery",
	"server.FrontConfig.Gossip.PhiSuspect",
	"server.FrontConfig.Gossip.PhiDead",
	"server.FrontConfig.Gossip.MinDwell",
	"server.FrontConfig.Gossip.Clock",
	"server.FrontConfig.Gossip.OnChange",

	"lb.Config.Servers",
	"lb.Config.RebalanceEvery",
	"lb.Config.Weight",

	"diskcache.Config.Dir",
	"diskcache.Config.Sync",
}

// goneFields were knobs no caller outside tests ever set twice; each is a
// constant or a derived value now. A gone struct-typed field takes its nested
// fields with it.
var goneFields = []string{
	"server.Resilience.Seed",
	"server.Resilience.BackoffMax",
	"server.Resilience.StaleCap",
	"server.Overload.RetryBudget",
	"server.Overload.RetryBudgetWindow",
	"server.Overload.RetryAfter",
	"server.Overload.Enabled",
	"server.Overload.PropagateDeadline",
	"server.Overload.Breaker",
	"server.PeerConfig.Breaker",
	"server.PeerConfig.Gossip",
	"server.PeerConfig.Fanout",
	"server.PeerConfig.Replication",
	"server.PeerConfig.RebalanceEvery",
	"server.PeerConfig.VirtualNodes",
	"server.PeerConfig.Clock",
	"server.FrontConfig.Breaker",
	"server.FrontConfig.VirtualNodes",
	"server.FrontConfig.LoadFactor",
	"server.FrontConfig.Replication",
	"server.FrontConfig.Attempts",
	"server.FrontConfig.Gossip.SuspectWeight",
	"server.FrontConfig.Gossip.Window",
	"server.FrontConfig.Gossip.MinSamples",
	"lb.Config.VirtualNodes",
	"lb.Config.Weights",
	"lb.Config.LoadFactor",
	"lb.Config.WeightSchedule",
	"lb.Config.Readiness",
	"diskcache.Config.SegmentBytes",
	"diskcache.Config.BatchEvery",
	"diskcache.Config.GCFraction",
}

// goneDecls are deleted declarations, by package directory ("Type.Method"
// for a method): those that carried the gone knobs, capabilities no caller
// outside tests used, internal/exp's process-wide memos, the simulator's
// warm-up reset, the duplicate standardisers and checkpoint file codecs, the
// two faulted-origin runs internal/exp's faultedRun replaced, the replay
// loop cache.Replay replaced, the /state GET side with the tracker's kind
// tag and the miss-admission switch, none of which a reader used, the
// DC journal's segment naming and rotation, which one log file replaced,
// the checkpoint's model codec, since a node's model is only ever its
// model file, the two activations no network used, the bandit's run
// wrapper, whose state its one caller already held, the /gossip
// endpoint, whose exchange a node's /readyz carries, the controller's
// lock-free exploit countdown and the counters' stripes, which one mutex
// each replaced, and the trace helper that only forwarded to tracegen.
var goneDecls = map[string][]string{
	".": {"DefaultPeerBreaker", "PeerConfig.WithDefaults", "Overload.withDefaults", "StateHandoff", "Proxy.ServeGossip",
		"statStripes", "statStripe", "newCounters"},
	"../node": {"handoffProvider"},
	"../baselines": {"Static", "NewStatic", "NewStaticSharded", "newHierarchy", "scaleVec",
		"Percentile.ResetMetrics", "HillClimbing.ResetMetrics", "AdaptSize.ResetMetrics",
		"DirectMapping.ResetMetrics", "TinyLFU.ResetMetrics", "Percentile.Expert",
		"HillClimbing.Expert", "DirectMapping.Expert", "AdaptSize.C"},
	"../lb":      {"ReplicationConfig", "ReplicationConfig.WithDefaults", "Ring.Loads", "Ring.Servers"},
	"../breaker": {"BudgetSnapshot", "Budget.SnapshotNow"},
	"../diskcache": {"Config.WithDefaults", "segmentName", "segmentTempName", "parseSegmentName",
		"Store.rotateLocked", "Store.openSegmentLocked", "Store.Err"},
	"../par": {"Do", "TaskError", "Errors"},
	"../cache": {"EvaluateAllParallel", "EvaluateHits", "Hierarchy.Play", "Index", "Sharded.SetAdmission",
		"Sharded.HOCBytes", "Sharded.DCBytes", "Sharded.HOCLen", "Sharded.DCLen",
		"Hierarchy.HOCBytes", "Hierarchy.DCBytes", "Hierarchy.HOCLen", "Hierarchy.DCLen",
		"trackerExact", "Hierarchy.SetAdmitOnMiss"},
	"../core": {"Controller.ResetMetrics", "EvictionSelector.Choices", "EvictionSelector.Exploiting",
		"EncodeCheckpoint", "DecodeCheckpoint", "SaveCheckpoint", "LoadCheckpoint",
		"checkpointJSON", "modelToJSON", "modelFromJSON", "resumeBandit",
		"Controller.reserveExploit", "Controller.serveLocked"},
	"../exp": {"CachedCorpus", "Hindsight", "HindsightTrace", "EnsembleSet", "corpusCache", "hindsightCache", "compareCache",
		"chaosRun", "overloadRun", "SyntheticMix"},
	"../stats":   {"Variance", "StdDev", "Welford", "Clamp", "Histogram.Total"},
	"../persist": {"SaveFrame", "LoadFrame", "appendWriter"},
	"../bandit": {"Algorithm.K", "Algorithm.Plays", "Algorithm.Estimates", "Algorithm", "New",
		"Algorithm.SetState", "Algorithm.State", "Algorithm.Rounds", "Algorithm.Stopped", "Algorithm.StopReason",
		"Algorithm.NextArm"},
	"../features": {"Extractor.Requests"},
	"../neural":   {"ReLU", "Identity"},
	"../cluster":  {"standardiseParams", "standardise"},
}

// servingCount matches the documents' statement of the serving tier's
// settable values, whitespace collapsed.
var servingCount = regexp.MustCompile(`serving-tier (?:config )?structs went from 77 settable values to (\d+)`)

// TestConfigSurface pins the serving tier's settable surface: adding a knob
// is a visible diff to configSurface, as adding a flag is to
// cmd/*/flags_test.go, and a deleted knob cannot come back unnoticed.
func TestConfigSurface(t *testing.T) {
	var got []string
	for _, c := range []any{
		server.Resilience{}, server.Overload{}, server.PeerConfig{}, server.FrontConfig{},
		lb.Config{}, diskcache.Config{},
	} {
		got = exportedFields(got, reflect.TypeOf(c), reflect.TypeOf(c).String())
	}
	for _, f := range got {
		if !slices.Contains(configSurface, f) {
			t.Errorf("new config field %s: add it to configSurface, with the caller that sets it twice", f)
		}
	}
	for _, f := range configSurface {
		if !slices.Contains(got, f) {
			t.Errorf("config field %s is gone: drop it from configSurface", f)
		}
	}
	for _, f := range goneFields {
		if slices.ContainsFunc(got, func(g string) bool { return g == f || strings.HasPrefix(g, f+".") }) {
			t.Errorf("deleted config field %s is back", f)
		}
	}
	// Both documents state the count: every listed field but the two
	// Gossip.Nodes/Self that NewFront overwrites.
	want := strconv.Itoa(len(configSurface) - 2)
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		m := servingCount.FindAllStringSubmatch(strings.Join(strings.Fields(string(b)), " "), -1)
		if len(m) != 1 || m[0][1] != want {
			t.Errorf("%s: serving-tier count %v, want one statement of %s settable values", doc, m, want)
		}
	}
	for dir, names := range goneDecls {
		decls := declared(t, dir)
		for _, name := range names {
			if decls[name] {
				t.Errorf("deleted declaration %s is back in %s", name, dir)
			}
		}
	}
}

// exportedFields appends prefix.Field for every exported field of struct type
// typ, descending into struct-typed fields.
func exportedFields(dst []string, typ reflect.Type, prefix string) []string {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			dst = exportedFields(dst, f.Type, prefix+"."+f.Name)
			continue
		}
		dst = append(dst, prefix+"."+f.Name)
	}
	return dst
}

// declared returns the top-level names the non-test Go files of dir declare:
// functions, types, variables and constants by name, methods as
// "Type.Method".
func declared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if gen, ok := recv.(*ast.IndexExpr); ok {
						recv = gen.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				out[name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						out[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							out[n.Name] = true
						}
					}
				}
			}
		}
	}
	return out
}
