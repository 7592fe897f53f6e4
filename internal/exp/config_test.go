package exp

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// experimentSurface is every exported field of the experiment tier's config
// structs. A field here is a knob that a flag sets, that some caller other
// than a test sets to more than one value, or — this tier's one exception —
// that a test sets to fit tier-1's time or to isolate one pipeline stage
// (DESIGN.md §4 item 16 names each with its reason). A struct-typed field is
// one value (EvalConfig, PrototypeConfig, faults.Config), as the learner
// tier's census counts it.
var experimentSurface = []string{
	"exp.Scale.OfflineTraceLen",
	"exp.Scale.OnlineTraceLen",
	"exp.Scale.MixStep",
	"exp.Scale.TrainSeeds",
	"exp.Scale.TestSeeds",
	"exp.Scale.Eval",
	"exp.Scale.Online",
	"exp.Scale.Experts",
	"exp.Scale.NumClusters",
	"exp.Scale.ThetaPct",
	"exp.Scale.Seed",

	"exp.PrototypeConfig.OriginLatency",
	"exp.PrototypeConfig.DCLatency",
	"exp.PrototypeConfig.Concurrency",
	"exp.PrototypeConfig.ConcurrencySweep",
	"exp.PrototypeConfig.TraceLen",

	"exp.ChaosConfig.Prototype",
	"exp.ChaosConfig.Faults",
	"exp.ChaosConfig.Resilience",

	"exp.OverloadConfig.Prototype",
	"exp.OverloadConfig.Faults",
	"exp.OverloadConfig.Resilience",
	"exp.OverloadConfig.Overload",
	"exp.OverloadConfig.Deadline",
	"exp.OverloadConfig.Burst",

	"exp.ClusterConfig.WindowLen",
	"exp.ClusterConfig.DrainAt",
	"exp.ClusterConfig.TraceLen",

	"exp.FlapConfig.FlapCycles",
	"exp.FlapConfig.PrefaultReqs",
	"exp.FlapConfig.FaultReqs",
	"exp.FlapConfig.WindowLen",
	"exp.FlapConfig.WarmWindows",
	"exp.FlapConfig.ReplayWindows",

	"exp.CrashConfig.Scale",
	"exp.CrashConfig.Window",
	"exp.CrashConfig.CkptEvery",
	"exp.CrashConfig.Sync",
}

// goneExperimentFields were set to one value by every caller, tests
// included: the rig workload (rig.go's rigExpert, rigEval, rigMix and
// rigSeed), the cluster size, the flap phase and the crash point (half the
// trace).
var goneExperimentFields = []string{
	"exp.ChaosConfig.Expert", "exp.ChaosConfig.Eval", "exp.ChaosConfig.Mix", "exp.ChaosConfig.Seed",
	"exp.OverloadConfig.Expert", "exp.OverloadConfig.Eval", "exp.OverloadConfig.Mix", "exp.OverloadConfig.Seed",
	"exp.ClusterConfig.Nodes", "exp.ClusterConfig.Expert", "exp.ClusterConfig.Eval", "exp.ClusterConfig.Mix",
	"exp.ClusterConfig.Seed",
	"exp.FlapConfig.FlapUp", "exp.FlapConfig.FlapDown", "exp.FlapConfig.Expert", "exp.FlapConfig.Eval",
	"exp.FlapConfig.Mix", "exp.FlapConfig.Seed",
	"exp.CrashConfig.CrashFrac",
}

// experimentCount matches the documents' statement of the experiment tier's
// settable values, whitespace collapsed.
var experimentCount = regexp.MustCompile(`experiment-tier (?:config )?structs went from 58 settable values to (\d+)`)

// TestConfigSurface pins the experiment tier's settable surface: adding a
// knob is a visible diff to experimentSurface, and a deleted knob cannot come
// back unnoticed.
func TestConfigSurface(t *testing.T) {
	var got []string
	for _, c := range []any{
		Scale{}, PrototypeConfig{}, ChaosConfig{}, OverloadConfig{}, ClusterConfig{}, FlapConfig{}, CrashConfig{},
	} {
		typ := reflect.TypeOf(c)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	for _, f := range got {
		if !slices.Contains(experimentSurface, f) {
			t.Errorf("new config field %s: add it to experimentSurface, with the caller that sets it twice", f)
		}
	}
	for _, f := range experimentSurface {
		if !slices.Contains(got, f) {
			t.Errorf("config field %s is gone: drop it from experimentSurface", f)
		}
	}
	for _, f := range goneExperimentFields {
		if slices.Contains(got, f) {
			t.Errorf("deleted config field %s is back", f)
		}
	}
	want := strconv.Itoa(len(experimentSurface))
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		m := experimentCount.FindAllStringSubmatch(strings.Join(strings.Fields(string(b)), " "), -1)
		if len(m) != 1 || m[0][1] != want {
			t.Errorf("%s: experiment-tier count %v, want one statement of %s settable values", doc, m, want)
		}
	}
}
