// Command darwin-front runs the cluster's content-aware front tier (§2.1's
// balancer, live): a consistent-hash ring with bounded loads over N
// darwin-proxy backends, with weight shedding driven by one graded
// membership view (/gossip digests; /readyz answers feed the same detector
// for backends that do not serve /gossip), per-backend circuit breakers with
// in-request failover, and popularity-adaptive replication of hot objects
// over ring successors.
//
// Usage:
//
//	darwin-front -addr :8070 -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"darwin/internal/server"
)

// options is what the flags set: the listen address and, bound in place, the
// config NewFront already takes.
type options struct {
	addr  string
	front server.FrontConfig
}

// drain is the graceful-shutdown deadline.
const drain = 10 * time.Second

// registerFlags declares darwin-front's flags on fs. Every tuning default
// comes from FrontConfig.WithDefaults — the flag shows it, nothing here
// repeats it — and a config field without a flag runs at that default.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{front: server.FrontConfig{}.WithDefaults()}
	c := &o.front
	fs.StringVar(&o.addr, "addr", ":8070", "listen address")
	fs.Func("backends", "comma-separated darwin-proxy base `URLs` (required; same order as the proxies' -peers)", func(s string) error {
		c.Backends = strings.Split(s, ",")
		return nil
	})
	fs.IntVar(&c.RebalanceEvery, "rebalance-every", c.RebalanceEvery, "requests per rebalance window (weights, budgets, replication factors refresh at boundaries)")
	fs.DurationVar(&c.ProbeEvery, "probe-every", c.ProbeEvery, "health poll period (/gossip digest exchange; /readyz for backends that do not serve it)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	nodes := o.front.Backends
	if len(nodes) == 0 {
		fatal(fmt.Errorf("-backends is required"))
	}
	front, err := server.NewFront(o.front)
	if err != nil {
		fatal(err)
	}
	// The prober outlives the drain: it stops when main returns.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	front.Start(ctx)

	health := server.NewHealth()
	mux := http.NewServeMux()
	mux.Handle("/obj/", front)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	mux.HandleFunc("/metrics", front.ServeMetrics)

	fmt.Fprintf(os.Stderr, "darwin-front: listening on %s over %d backends (%s)\n", o.addr, len(nodes), strings.Join(nodes, ","))
	if err := server.Run(ctx, &http.Server{Addr: o.addr, Handler: mux}, health, 0, drain); err != nil {
		fatal(err)
	}
	st := front.Stats()
	fmt.Fprintf(os.Stderr, "darwin-front: %d requests, %d relayed, %d failovers, %d no-backend\n",
		st.Requests, st.Relayed, st.Failovers, st.NoBackend)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "darwin-front:", err)
	os.Exit(1)
}
