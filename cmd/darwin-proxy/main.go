// Command darwin-proxy runs the ATS-like CDN caching proxy (§5). The HOC
// admission policy is either a fixed static expert or Darwin's online
// controller; in the latter case the offline phase is trained at startup on
// a synthetic corpus (the prototype equivalent of shipping a pre-trained
// model to the edge).
//
// Usage:
//
//	darwin-proxy -addr :8080 -origin http://127.0.0.1:9000 -mode darwin
//	darwin-proxy -addr :8080 -origin http://127.0.0.1:9000 -mode static -f 2 -s 10240
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

	"darwin/internal/breaker"
	"darwin/internal/core"
	"darwin/internal/exp"
	"darwin/internal/node"
	"darwin/internal/server"
)

// options is what the flags set: the values main consumes itself and, bound
// in place, the node's Config.
type options struct {
	addr, mode, objective string
	pprofAddr, modelPath  string
	drain, lameDuck       time.Duration
	resilient, overload   bool

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
	n.Overload.Breaker = breaker.Config{}.WithDefaults()

	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&n.Origin, "origin", "http://127.0.0.1:9000", "origin base URL")
	fs.DurationVar(&n.DCLatency, "dc-latency", 2*time.Millisecond, "injected disk-read delay")
	fs.StringVar(&o.mode, "mode", "darwin", "darwin | static")
	fs.IntVar(&n.Expert.Freq, "f", 2, "static expert frequency threshold")
	fs.Int64Var(&n.Expert.MaxSize, "s", 10<<10, "static expert size threshold (bytes)")
	fs.Int64Var(&n.HOCBytes, "hoc", 2<<20, "HOC bytes")
	fs.Int64Var(&n.DCBytes, "dc", 200<<20, "DC bytes")
	fs.StringVar(&o.objective, "objective", "ohr", "darwin objective: ohr | bmr | combined")
	fs.IntVar(&n.Shards, "shards", 0, "cache engine shard count (0 = auto from GOMAXPROCS, 1 = serial/global-lock data plane)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
	fs.StringVar(&o.modelPath, "model", "", "pre-trained model file from darwin-train (skips startup training)")

	fs.StringVar(&n.Store.Dir, "data-dir", "", "durable state directory: DC journal + learned-state checkpoints (empty = in-memory only)")
	fs.Var(&n.Store.Sync, "fsync", "journal fsync `policy`: batch (default) | always | off")
	fs.DurationVar(&n.CheckpointEvery, "checkpoint-interval", 30*time.Second, "learned-state checkpoint period (0 = checkpoint only at shutdown)")

	fs.BoolVar(&o.resilient, "resilient", true, "enable the fault-tolerance layer (retries, coalescing, serve-stale; server.DefaultResilience)")
	fs.IntVar(&n.Resilience.MaxAttempts, "retries", n.Resilience.MaxAttempts, "total origin fetch attempts per miss (1 = no retry)")
	fs.DurationVar(&n.Resilience.BackoffBase, "backoff", n.Resilience.BackoffBase, "base retry backoff (doubles per retry, jittered)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain deadline")
	fs.DurationVar(&o.lameDuck, "lame-duck", 300*time.Millisecond, "keep serving after readyz/gossip flip to 503 so probers observe the drain verdict before the listener closes")

	fs.Func("peers", "comma-separated cluster node base `URLs` (enables peer cache fill, gossip membership and drain handoff; must include -self)", func(s string) error {
		n.Peer.Nodes = strings.Split(s, ",")
		return nil
	})
	fs.StringVar(&n.Peer.Self, "self", "", "this node's own entry in -peers")

	fs.BoolVar(&o.overload, "overload", true, "enable the overload-protection layer (breaker, admission, deadlines, hedging; server.DefaultOverload)")
	fs.Float64Var(&n.Overload.Breaker.FailureThreshold, "brk-threshold", n.Overload.Breaker.FailureThreshold, "circuit breaker failure-ratio trip threshold")
	fs.DurationVar(&n.Overload.Breaker.OpenFor, "brk-open-for", n.Overload.Breaker.OpenFor, "circuit breaker cool-off before half-open")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	cfg := o.node
	// Outside input is checked once, here, before a model is trained or a
	// listener opened (-self/-peers by node.New, also before listening).
	if err := errors.Join(cfg.Resilience.Validate(), cfg.Overload.Validate()); err != nil {
		fatal(err)
	}
	// Switching a layer off passes its zero config: the same pipeline with
	// those stages absent.
	if !o.resilient {
		cfg.Resilience = server.Resilience{}
	}
	if !o.overload {
		cfg.Overload = server.Overload{}
	}
	switch o.mode {
	case "static":
	case "darwin":
		sc := exp.Default()
		sc.Eval.HOCBytes = cfg.HOCBytes
		sc.Eval.DCBytes = cfg.DCBytes
		cfg.Online = sc.Online
		if o.modelPath != "" {
			fd, err := os.Open(o.modelPath)
			if err != nil {
				fatal(err)
			}
			cfg.Model, err = core.ReadModel(fd)
			fd.Close()
			if err != nil {
				fatal(err)
			}
		} else {
			// Startup training, unless the data directory's checkpoint
			// already carries the model (node.New decides).
			cfg.Train = func() (*core.Model, error) {
				fmt.Fprintln(os.Stderr, "darwin-proxy: training offline model on a synthetic corpus...")
				c, err := exp.BuildCorpus(sc, o.objective)
				if err != nil {
					return nil, err
				}
				return c.Model, nil
			}
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", o.mode))
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
	fmt.Fprintf(os.Stderr, "darwin-proxy: %s mode, listening on %s, origin %s (shards=%d, resilient=%v, overload=%v)\n", o.mode, o.addr, cfg.Origin, n.Shards(), o.resilient, o.overload)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "darwin-proxy:", err)
	os.Exit(1)
}
