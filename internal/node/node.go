// Package node assembles one darwin edge node — the thing cmd/darwin-proxy
// deploys — in one importable place: the cache engine and its decider (a
// static expert or Darwin's online controller), the durable state (journal
// open → recover → periodic checkpoint → final checkpoint and close), the
// /state handoff codec, the health gates, the route table and the
// drain-then-push shutdown. cmd/darwin-proxy binds flags onto Config and runs
// the result; internal/exp builds the same Node on loopback listeners, so the
// crash, cluster and flap experiments exercise the code that ships instead of
// a model of it.
package node

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/server"
)

// Config is everything that distinguishes one node from another.
type Config struct {
	// Expert is the static HOC admission expert, deployed when neither Model
	// nor Train is set.
	Expert cache.Expert
	// Model is a trained offline model: the node runs Darwin's online
	// controller over it. When Model is nil and Train is set, the model comes
	// from the data directory's checkpoint if it carries one (a restarted
	// node skips retraining) and from Train otherwise.
	Model *core.Model
	Train func() (*core.Model, error)
	// Online configures the controller; its Warmup follows the model's
	// feature window.
	Online core.OnlineConfig

	// HOCBytes and DCBytes size the two cache levels; Shards stripes the
	// engine (<= 0 means cache.AutoShards).
	HOCBytes, DCBytes int64
	Shards            int

	// Store configures the DC journal; an empty Store.Dir keeps all state in
	// memory. CheckpointEvery is the learned-state checkpoint period (0 =
	// only the final checkpoint at Close).
	Store           diskcache.Config
	CheckpointEvery time.Duration

	// Origin is the origin base URL; DCLatency the injected disk-read delay.
	Origin    string
	DCLatency time.Duration
	// Resilience and Overload configure the request pipeline's optional
	// stages (zero value = stage absent).
	Resilience server.Resilience
	Overload   server.Overload
	// Peer wires the node into a cluster — peer fill, gossip membership,
	// /gossip, /state and the drain-time handoff — when Peer.Nodes is set.
	Peer server.PeerConfig
}

// Node is one assembled edge node.
type Node struct {
	// Proxy is the request pipeline; Health owns the node's one verdict.
	Proxy  *server.Proxy
	Health *server.Health

	eng       *cache.Sharded
	ctrl      *core.Controller // nil in static mode
	dur       *durability      // nil without a data directory
	clustered bool
	mux       *http.ServeMux
}

// New assembles a node and starts its background work (journal recovery,
// periodic checkpoints). The node serves during recovery — cache misses are
// correct, just cold — but its health verdict holds 503 until recovery
// finishes, so balancers do not route to a still-warming instance.
func New(cfg Config) (*Node, error) {
	n, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if n.dur != nil {
		n.dur.start()
	}
	return n, nil
}

// build is New without the background work.
func build(cfg Config) (*Node, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = cache.AutoShards()
	}
	n := &Node{clustered: len(cfg.Peer.Nodes) > 0}
	// Durable state first: the journal plugs into engine construction, and a
	// checkpoint may carry the model.
	var dclog cache.DCLog
	if cfg.Store.Dir != "" {
		dur, err := openDurability(cfg.Store, cfg.CheckpointEvery)
		if err != nil {
			return nil, err
		}
		n.dur, dclog = dur, dur.store
	}
	var dec server.Decider
	model := cfg.Model
	if model == nil && cfg.Train != nil {
		if n.dur != nil && n.dur.loaded != nil && n.dur.loaded.Model != nil {
			logf("reusing trained model from checkpoint")
			model = n.dur.loaded.Model
		} else {
			var err error
			if model, err = cfg.Train(); err != nil {
				return nil, n.abandon(err)
			}
		}
	}
	if model == nil {
		st, err := baselines.NewStaticSharded(cfg.Expert,
			cache.EvalConfig{HOCBytes: cfg.HOCBytes, DCBytes: cfg.DCBytes, DCLog: dclog}, cfg.Shards)
		if err != nil {
			return nil, n.abandon(err)
		}
		dec, n.eng = st, st.Engine().(*cache.Sharded)
	} else {
		if model.FeatureWindow > 0 {
			cfg.Online.Warmup = model.FeatureWindow
		}
		eng, err := cache.NewSharded(cache.Config{HOCBytes: cfg.HOCBytes, DCBytes: cfg.DCBytes, DCLog: dclog}, cfg.Shards)
		if err != nil {
			return nil, n.abandon(err)
		}
		ctrl, err := core.NewController(model, eng, cfg.Online)
		if err != nil {
			return nil, n.abandon(err)
		}
		dec, n.eng, n.ctrl = ctrl, eng, ctrl
	}
	if n.dur != nil {
		n.dur.attach(n.eng, n.ctrl, model)
	}

	n.Proxy = server.NewOverloadProxy(dec, cfg.Origin, cfg.DCLatency, cfg.Resilience, cfg.Overload)
	gates := []server.Gate{{Name: "breaker", Ready: n.Proxy.Ready}}
	if n.dur != nil {
		gates = append(gates, server.Gate{Name: "recovery", Ready: n.dur.recovered.Load})
	}
	n.Health = server.NewHealth(gates...)

	n.mux = http.NewServeMux()
	n.mux.Handle("/obj/", n.Proxy)
	n.mux.HandleFunc("/healthz", n.Health.Healthz)
	n.mux.HandleFunc("/readyz", n.Health.Readyz)
	if n.clustered {
		if err := n.Proxy.SetPeers(cfg.Peer); err != nil {
			return nil, n.abandon(err)
		}
		n.Proxy.EnableStateHandoff(server.StateHandoff{
			Provide: handoffProvider(n.eng, n.ctrl, model),
			Accept:  handoffAcceptor(n.eng, n.ctrl),
		})
		// /gossip answers from the same verdict as /readyz: a draining or
		// gated node's 503 is what the front tier reads as an explicit "stop
		// routing here" — immediate weight shed, no waiting for phi to accrue.
		n.mux.HandleFunc("/gossip", n.Health.Gated(n.Proxy.ServeGossip))
		n.mux.HandleFunc("/state", n.Proxy.ServeState)
	}
	n.mux.HandleFunc("/metrics", n.serveMetrics)
	return n, nil
}

// abandon releases the journal of a node whose assembly failed, and returns
// err for the caller to pass on.
func (n *Node) abandon(err error) error {
	if n.dur != nil {
		_ = n.dur.store.Close() // the assembly error is the one worth reporting
	}
	return err
}

// Handler serves the node's routes: /obj/, /healthz, /readyz, /metrics and,
// in a cluster, /gossip (behind the health verdict) and /state.
func (n *Node) Handler() http.Handler { return n.mux }

// Shards returns the engine's shard count.
func (n *Node) Shards() int { return n.eng.Shards() }

// Checkpoint captures and atomically persists the node's learned state now —
// what the periodic checkpointer does on its timer.
func (n *Node) Checkpoint() error {
	if n.dur == nil {
		return fmt.Errorf("node: no data directory to checkpoint into")
	}
	return n.dur.checkpoint()
}

// Run serves the node on addr until SIGINT/SIGTERM (or ctx ends), drains
// (server.Run), and then closes the node. Close runs whether or not the
// drain met its deadline — the drains that overrun are the busiest nodes',
// whose learned state is the most worth handing on — and the drain error is
// returned afterwards.
func (n *Node) Run(ctx context.Context, addr string, lameDuck, drain time.Duration) error {
	err := server.Run(ctx, &http.Server{Addr: addr, Handler: n.mux}, n.Health, lameDuck, drain)
	cctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	n.Close(cctx)
	return err
}

// Close is a node's orderly departure, in order: the verdict flips to
// draining; in a cluster the learned state is pushed to the ring successor
// (the node inheriting this keyspace — best effort: a dead or refusing
// successor just starts cold); a final checkpoint is written; the journal is
// closed. Call it once the listener has stopped, so the state is quiesced.
// A node dropped without Close is a crashed node.
func (n *Node) Close(ctx context.Context) {
	n.Health.StartDrain()
	if n.clustered {
		if succ, err := n.Proxy.PushStateToSuccessor(ctx, nil); err != nil {
			logf("state handoff skipped: %v", err)
		} else {
			logf("state handed off to ring successor %d", succ)
		}
	}
	if n.dur != nil {
		n.dur.close()
	}
}

// serveMetrics is the /metrics exposition: a line per field of the cache
// metrics, ProxyStats, breaker_* and journal_*, plus the lines no struct holds.
func (n *Node) serveMetrics(w http.ResponseWriter, r *http.Request) {
	m := n.Proxy.Metrics()
	server.WriteMetrics(w, "", m)
	fmt.Fprintf(w, "ohr %.4f\nbmr %.4f\n", m.OHR(), m.BMR())
	server.WriteMetrics(w, "", n.Proxy.Stats())
	if memb := n.Proxy.Membership(); memb != nil {
		for i := 0; i < memb.Nodes(); i++ {
			if i == memb.Self() {
				continue
			}
			fmt.Fprintf(w, "gossip_peer_status{node=%d} %s\ngossip_peer_phi{node=%d} %.3f\n",
				i, memb.Status(i), i, memb.Phi(i))
		}
	}
	if bs, ok := n.Proxy.BreakerSnapshot(); ok {
		server.WriteMetrics(w, "breaker_", bs)
	}
	if n.dur != nil {
		recovered := 0
		if n.dur.recovered.Load() {
			recovered = 1
		}
		fmt.Fprintf(w, "recovered %d\n", recovered)
		server.WriteMetrics(w, "journal_", n.dur.store.Stats())
	}
}

// logf prints one diagnostic line to standard error, prefixed with the
// binary's name like server.Run's drain lines.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", filepath.Base(os.Args[0]), fmt.Sprintf(format, args...))
}
