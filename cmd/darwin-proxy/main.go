// Command darwin-proxy runs the ATS-like CDN caching proxy (§5). The HOC
// admission policy is Darwin's online controller over the model file
// darwin-train wrote (-model), or, without one, a fixed static expert. The
// proxy never trains a model: the offline phase runs once, elsewhere, and
// each edge server loads its result.
//
// Usage:
//
//	darwin-proxy -addr :8080 -origin http://127.0.0.1:9000 -model model.json
//	darwin-proxy -addr :8080 -origin http://127.0.0.1:9000 -f 2 -s 10240
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // side-listener profiling endpoints, gated by -pprof
	"os"
	"strings"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/node"
	"darwin/internal/server"
)

// options is what the flags set: the values main consumes itself and, bound
// in place, the node's Config.
type options struct {
	addr, pprofAddr, modelPath string
	drain, lameDuck            time.Duration
	resilient, overload        bool

	node node.Config
}

// registerFlags declares darwin-proxy's flags on fs. Every tuning default
// comes from the package that owns the setting — the flag shows it, nothing
// here repeats it — and a config field without a flag runs at that default.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{node: node.Config{
		Resilience: server.DefaultResilience(),
		Overload:   server.DefaultOverload(),
	}}
	n := &o.node

	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&n.Origin, "origin", "http://127.0.0.1:9000", "origin base URL")
	fs.DurationVar(&n.DCLatency, "dc-latency", 2*time.Millisecond, "injected disk-read delay")
	fs.IntVar(&n.Expert.Freq, "f", 2, "static expert frequency threshold")
	fs.Int64Var(&n.Expert.MaxSize, "s", 10<<10, "static expert size threshold (bytes)")
	fs.Int64Var(&n.HOCBytes, "hoc", cache.DefaultEvalConfig().HOCBytes, "HOC bytes")
	fs.Int64Var(&n.DCBytes, "dc", cache.DefaultEvalConfig().DCBytes, "DC bytes")
	fs.IntVar(&n.Shards, "shards", 0, "cache engine shard count, a power of two (0 = auto from GOMAXPROCS, 1 = serial/global-lock data plane)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
	fs.StringVar(&o.modelPath, "model", "", "trained model file from darwin-train; selects darwin mode (empty = the static expert -f/-s)")

	fs.StringVar(&n.Store.Dir, "data-dir", "", "durable state directory: DC journal + learned-state checkpoints (empty = in-memory only)")
	fs.Var(&n.Store.Sync, "fsync", "journal fsync `policy`: batch (default) | always | off")
	fs.DurationVar(&n.CheckpointEvery, "checkpoint-interval", 30*time.Second, "learned-state checkpoint period (0 = checkpoint only at shutdown)")

	fs.BoolVar(&o.resilient, "resilient", true, "enable the fault-tolerance layer (retries, coalescing, serve-stale; server.DefaultResilience)")
	fs.IntVar(&n.Resilience.MaxAttempts, "retries", n.Resilience.MaxAttempts, "total origin fetch attempts per miss (1 = no retry)")
	fs.DurationVar(&n.Resilience.BackoffBase, "backoff", n.Resilience.BackoffBase, "base retry backoff (doubles per retry, jittered)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain deadline")
	fs.DurationVar(&o.lameDuck, "lame-duck", 300*time.Millisecond, "keep serving after /readyz flips to 503 so probers observe the drain verdict before the listener closes")

	fs.Func("peers", "comma-separated cluster node base `URLs` (enables peer cache fill, gossip membership and drain handoff; must include -self)", func(s string) error {
		n.Peer.Nodes = strings.Split(s, ",")
		return nil
	})
	fs.StringVar(&n.Peer.Self, "self", "", "this node's own entry in -peers")

	fs.BoolVar(&o.overload, "overload", true, "enable the overload-protection layer (breaker, admission, deadlines, hedging; server.DefaultOverload)")
	fs.Float64Var(&n.Overload.BreakerThreshold, "brk-threshold", n.Overload.BreakerThreshold, "circuit breaker failure-ratio trip threshold")
	fs.DurationVar(&n.Overload.BreakerOpenFor, "brk-open-for", n.Overload.BreakerOpenFor, "circuit breaker cool-off before half-open")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	cfg, err := o.config()
	if err != nil {
		fatal(err)
	}
	n, err := node.New(cfg)
	if err != nil {
		fatal(err)
	}
	if len(cfg.Peer.Nodes) > 0 {
		fmt.Fprintf(os.Stderr, "darwin-proxy: peer fill over %s (self %s)\n", strings.Join(cfg.Peer.Nodes, ","), cfg.Peer.Self)
	}
	if o.pprofAddr != "" {
		// Profiling runs on its own listener so /debug/pprof is never exposed
		// on the serving address. net/http/pprof registers its handlers on
		// http.DefaultServeMux.
		go func() {
			fmt.Fprintf(os.Stderr, "darwin-proxy: pprof on http://%s/debug/pprof/\n", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "darwin-proxy: pprof listener:", err)
			}
		}()
	}
	mode := "static"
	if cfg.Model != nil {
		mode = "darwin"
	}
	fmt.Fprintf(os.Stderr, "darwin-proxy: %s mode, listening on %s, origin %s (shards=%d, resilient=%v, overload=%v)\n", mode, o.addr, cfg.Origin, n.Shards(), o.resilient, o.overload)
	// Run hands off, checkpoints and closes the journal before it returns,
	// drain error or not; only then may the process exit non-zero.
	err = n.Run(context.Background(), o.addr, o.lameDuck, o.drain)
	st := n.Proxy.Stats()
	fmt.Fprintf(os.Stderr, "darwin-proxy: %d origin fetches, %d retries, %d coalesced, %d stale serves, %d fetch failures\n",
		st.OriginFetches, st.Retries, st.Coalesced, st.StaleServes, st.FetchFailures)
	if err != nil {
		fatal(err)
	}
}

// config is the node the options describe. Outside input is checked here,
// before a listener opens (-self/-peers by node.New, also before listening):
// the layer settings, and the model file, which is read whole.
func (o *options) config() (node.Config, error) {
	cfg := o.node
	if err := errors.Join(cfg.Resilience.Validate(), cfg.Overload.Validate()); err != nil {
		return cfg, err
	}
	// Switching a layer off passes its zero config: the same pipeline with
	// those stages absent.
	if !o.resilient {
		cfg.Resilience = server.Resilience{}
	}
	if !o.overload {
		cfg.Overload = server.Overload{}
	}
	if o.modelPath == "" {
		return cfg, nil
	}
	fd, err := os.Open(o.modelPath)
	if err != nil {
		return cfg, err
	}
	defer fd.Close()
	if cfg.Model, err = core.ReadModel(fd); err != nil {
		return cfg, fmt.Errorf("%s: %w", o.modelPath, err)
	}
	// The controller warms up over the window the model's features were
	// trained on.
	cfg.Online = core.DefaultOnlineConfig()
	if w := cfg.Model.FeatureWindow; w > 0 {
		cfg.Online.Warmup = w
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "darwin-proxy:", err)
	os.Exit(1)
}
