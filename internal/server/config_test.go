package server_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
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

	"server.Overload.Enabled",
	"server.Overload.Breaker.Window",
	"server.Overload.Breaker.Buckets",
	"server.Overload.Breaker.FailureThreshold",
	"server.Overload.Breaker.MinRequests",
	"server.Overload.Breaker.OpenFor",
	"server.Overload.Breaker.HalfOpenProbes",
	"server.Overload.Breaker.Clock",
	"server.Overload.MaxInFlight",
	"server.Overload.PropagateDeadline",
	"server.Overload.MinFetchBudget",
	"server.Overload.Hedge",

	"server.PeerConfig.Self",
	"server.PeerConfig.Nodes",
	"server.PeerConfig.FetchTimeout",
	"server.PeerConfig.Clock",

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
	"lb.Config.LoadFactor",
	"lb.Config.RebalanceEvery",
	"lb.Config.WeightSchedule",
	"lb.Config.Readiness",

	"diskcache.Config.Dir",
	"diskcache.Config.Sync",
}

// goneFields were knobs no caller outside tests ever set twice; each is a
// constant or a derived value now.
var goneFields = []string{
	"server.Resilience.Seed",
	"server.Resilience.BackoffMax",
	"server.Resilience.StaleCap",
	"server.Overload.RetryBudget",
	"server.Overload.RetryBudgetWindow",
	"server.Overload.RetryAfter",
	"server.PeerConfig.Breaker",
	"server.PeerConfig.Gossip",
	"server.PeerConfig.Fanout",
	"server.PeerConfig.Replication",
	"server.PeerConfig.RebalanceEvery",
	"server.PeerConfig.VirtualNodes",
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
	"diskcache.Config.SegmentBytes",
	"diskcache.Config.BatchEvery",
	"diskcache.Config.GCFraction",
}

// goneDecls are the declarations that carried the gone knobs, by package
// directory ("Type.Method" for a method).
var goneDecls = map[string][]string{
	".":            {"DefaultPeerBreaker", "PeerConfig.WithDefaults"},
	"../lb":        {"ReplicationConfig", "ReplicationConfig.WithDefaults"},
	"../breaker":   {"BudgetSnapshot", "Budget.SnapshotNow"},
	"../diskcache": {"Config.WithDefaults"},
}

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
		if slices.Contains(got, f) {
			t.Errorf("deleted config field %s is back", f)
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
