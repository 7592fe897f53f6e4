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

	"darwin/internal/baselines"
	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/exp"
	"darwin/internal/server"
)

// options is what the flags set: the values main consumes itself and, bound
// in place, the configs the constructors already take.
type options struct {
	addr, origin, mode, objective string
	pprofAddr, modelPath          string
	dcLatency, ckptEvery          time.Duration
	drain, lameDuck               time.Duration
	expert                        cache.Expert
	hoc, dc                       int64
	shards                        int
	resilient, overload           bool

	store diskcache.Config
	res   server.Resilience
	ov    server.Overload
	peer  server.PeerConfig
}

// registerFlags declares darwin-proxy's flags on fs. Every tuning default
// comes from the package that owns the setting — the flag shows it, nothing
// here repeats it — and a config field without a flag runs at that default.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{
		store: diskcache.Config{}.WithDefaults(),
		res:   server.DefaultResilience(),
		ov:    server.DefaultOverload(),
		peer:  server.PeerConfig{}.WithDefaults(),
	}
	o.ov.Breaker = breaker.Config{}.WithDefaults()

	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.origin, "origin", "http://127.0.0.1:9000", "origin base URL")
	fs.DurationVar(&o.dcLatency, "dc-latency", 2*time.Millisecond, "injected disk-read delay")
	fs.StringVar(&o.mode, "mode", "darwin", "darwin | static")
	fs.IntVar(&o.expert.Freq, "f", 2, "static expert frequency threshold")
	fs.Int64Var(&o.expert.MaxSize, "s", 10<<10, "static expert size threshold (bytes)")
	fs.Int64Var(&o.hoc, "hoc", 2<<20, "HOC bytes")
	fs.Int64Var(&o.dc, "dc", 200<<20, "DC bytes")
	fs.StringVar(&o.objective, "objective", "ohr", "darwin objective: ohr | bmr | combined")
	fs.IntVar(&o.shards, "shards", 0, "cache engine shard count (0 = auto from GOMAXPROCS, 1 = serial/global-lock data plane)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
	fs.StringVar(&o.modelPath, "model", "", "pre-trained model file from darwin-train (skips startup training)")

	fs.StringVar(&o.store.Dir, "data-dir", "", "durable state directory: DC journal + learned-state checkpoints (empty = in-memory only)")
	fs.Var(&o.store.Sync, "fsync", "journal fsync `policy`: batch (default) | always | off")
	fs.DurationVar(&o.ckptEvery, "checkpoint-interval", 30*time.Second, "learned-state checkpoint period (0 = checkpoint only at shutdown)")

	fs.BoolVar(&o.resilient, "resilient", true, "enable the fault-tolerance layer (retries, coalescing, serve-stale; server.DefaultResilience)")
	fs.IntVar(&o.res.MaxAttempts, "retries", o.res.MaxAttempts, "total origin fetch attempts per miss (1 = no retry)")
	fs.DurationVar(&o.res.BackoffBase, "backoff", o.res.BackoffBase, "base retry backoff (doubles per retry, jittered)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain deadline")
	fs.DurationVar(&o.lameDuck, "lame-duck", 300*time.Millisecond, "keep serving after readyz/gossip flip to 503 so probers observe the drain verdict before the listener closes")

	fs.Func("peers", "comma-separated cluster node base `URLs` (enables peer cache fill, gossip membership and drain handoff; must include -self)", func(s string) error {
		o.peer.Nodes = strings.Split(s, ",")
		return nil
	})
	fs.StringVar(&o.peer.Self, "self", "", "this node's own entry in -peers")

	fs.BoolVar(&o.overload, "overload", true, "enable the overload-protection layer (breaker, admission, deadlines, hedging; server.DefaultOverload)")
	fs.Float64Var(&o.ov.Breaker.FailureThreshold, "brk-threshold", o.ov.Breaker.FailureThreshold, "circuit breaker failure-ratio trip threshold")
	fs.DurationVar(&o.ov.Breaker.OpenFor, "brk-open-for", o.ov.Breaker.OpenFor, "circuit breaker cool-off before half-open")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if o.shards <= 0 {
		o.shards = cache.AutoShards()
	}
	// Outside input is checked once, here, before a model is trained or a
	// listener opened (-self/-peers by SetPeers below, also before listening).
	if err := errors.Join(o.res.Validate(), o.ov.Validate()); err != nil {
		fatal(err)
	}
	// Switching a layer off passes its zero config: the same pipeline with
	// those stages absent.
	if !o.resilient {
		o.res = server.Resilience{}
	}
	if !o.overload {
		o.ov = server.Overload{}
	}
	var (
		dec server.Decider
		err error
	)
	// Durable state: open the DC journal and load any checkpoint before
	// building engines, so both plug into the construction below.
	var dur *durability
	var dclog cache.DCLog
	if o.store.Dir != "" {
		dur, err = openDurability(o.store, o.ckptEvery)
		if err != nil {
			fatal(err)
		}
		dclog = dur.store
	}
	var (
		shEng *cache.Sharded
		ctrl  *core.Controller
		model *core.Model
	)
	switch o.mode {
	case "static":
		var st *baselines.Static
		st, err = baselines.NewStaticSharded(o.expert,
			cache.EvalConfig{HOCBytes: o.hoc, DCBytes: o.dc, DCLog: dclog}, o.shards)
		if err == nil {
			dec = st
			shEng = st.Engine().(*cache.Sharded)
		}
	case "darwin":
		sc := exp.Default()
		sc.Eval.HOCBytes = o.hoc
		sc.Eval.DCBytes = o.dc
		switch {
		case o.modelPath != "":
			var fd *os.File
			fd, err = os.Open(o.modelPath)
			if err == nil {
				model, err = core.ReadModel(fd)
				fd.Close()
			}
		case dur != nil && dur.loaded != nil && dur.loaded.Model != nil:
			// Fast restart: the checkpoint carries the trained model, so a
			// crashed proxy skips retraining entirely.
			fmt.Fprintln(os.Stderr, "darwin-proxy: reusing trained model from checkpoint")
			model = dur.loaded.Model
		default:
			fmt.Fprintln(os.Stderr, "darwin-proxy: training offline model on a synthetic corpus...")
			var c *exp.Corpus
			c, err = exp.BuildCorpus(sc, o.objective)
			if err == nil {
				model = c.Model
			}
		}
		if err == nil {
			if model.FeatureWindow > 0 {
				sc.Online.Warmup = model.FeatureWindow
			}
			var eng *cache.Sharded
			eng, err = cache.NewSharded(cache.Config{HOCBytes: o.hoc, DCBytes: o.dc, DCLog: dclog}, o.shards)
			if err == nil {
				ctrl, err = core.NewController(model, eng, sc.Online)
				if err == nil {
					dec = ctrl
					shEng = eng
				}
			}
		}
	default:
		err = fmt.Errorf("unknown mode %q", o.mode)
	}
	if err != nil {
		fatal(err)
	}
	if dur != nil {
		dur.attach(shEng, ctrl, model)
	}
	// Batched counter publication: shards accumulate metric deltas locally and
	// publish the whole consistent block every 32 requests, keeping the seqlock
	// fences off the per-request path. Round-boundary and /metrics reads go
	// through SyncMetrics, so learning and reporting still see exact counts.
	shEng.SetPublishEvery(32)

	proxy := server.NewOverloadProxy(dec, o.origin, o.dcLatency, o.res, o.ov)
	gates := []server.Gate{{Name: "breaker", Ready: proxy.Ready}}
	if dur != nil {
		// The proxy serves during recovery (cache misses are correct, just
		// cold), but the health verdict holds 503 so balancers don't route to
		// a still-warming instance.
		gates = append(gates, server.Gate{Name: "recovery", Ready: dur.recovered.Load})
	}
	health := server.NewHealth(gates...)
	mux := http.NewServeMux()
	mux.Handle("/obj/", proxy)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	clustered := len(o.peer.Nodes) > 0
	if clustered {
		if err := proxy.SetPeers(o.peer); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "darwin-proxy: peer fill over %s (self %s)\n", strings.Join(o.peer.Nodes, ","), o.peer.Self)
		proxy.EnableStateHandoff(server.StateHandoff{
			Provide: handoffProvider(shEng, ctrl, model),
			Accept:  handoffAcceptor(shEng, ctrl),
		})
		// /gossip answers from the same verdict as /readyz: a draining or
		// gated node's 503 is what the front tier reads as an explicit "stop
		// routing here" — immediate weight shed, no waiting for phi to accrue.
		mux.HandleFunc("/gossip", health.Gated(proxy.ServeGossip))
		mux.HandleFunc("/state", proxy.ServeState)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		m := proxy.Metrics()
		st := proxy.Stats()
		fmt.Fprintf(w, "requests %d\nhoc_hits %d\ndc_hits %d\nmisses %d\nohr %.4f\nbmr %.4f\ndisk_write_bytes %d\n",
			m.Requests, m.HOCHits, m.DCHits, m.Misses, m.OHR(), m.BMR(), m.DCWriteBytes)
		fmt.Fprintf(w, "origin_fetches %d\nretries %d\nfetch_failures %d\ncoalesced %d\nstale_serves %d\nproxy_errors %d\n",
			st.OriginFetches, st.Retries, st.FetchFailures, st.Coalesced, st.StaleServes, st.Errors)
		fmt.Fprintf(w, "shed %d\ndeadline_sheds %d\nbreaker_rejects %d\nhedges %d\nhedge_wins %d\nretry_budget_denied %d\n",
			st.Shed, st.DeadlineSheds, st.BreakerRejects, st.Hedges, st.HedgeWins, st.RetryBudgetDenied)
		fmt.Fprintf(w, "peer_probes %d\npeer_fills %d\npeer_errors %d\npeer_rejects %d\npeer_served %d\n",
			st.PeerProbes, st.PeerFills, st.PeerErrors, st.PeerRejects, st.PeerServed)
		fmt.Fprintf(w, "peer_skips_dead %d\ngossip_exchanges %d\nstate_merges %d\nstate_rejects %d\nstate_pushes %d\n",
			st.PeerSkipsDead, st.GossipExchanges, st.StateMerges, st.StateRejects, st.StatePushes)
		if clustered {
			memb := proxy.Membership()
			for i := 0; i < memb.Nodes(); i++ {
				if i == memb.Self() {
					continue
				}
				fmt.Fprintf(w, "gossip_peer_status{node=%d} %s\ngossip_peer_phi{node=%d} %.3f\n",
					i, memb.Status(i), i, memb.Phi(i))
			}
		}
		if bs, ok := proxy.BreakerSnapshot(); ok {
			fmt.Fprintf(w, "breaker_state %s\nbreaker_opens %d\nbreaker_half_opens %d\nbreaker_reopens %d\nbreaker_closes %d\nbreaker_denied %d\nbreaker_probes %d\n",
				bs.State, bs.Opens, bs.HalfOpens, bs.Reopens, bs.Closes, bs.Denied, bs.Probes)
		}
		if dur != nil {
			ds := dur.store.Stats()
			fmt.Fprintf(w, "recovered %d\njournal_live_objects %d\njournal_live_bytes %d\njournal_log_bytes %d\njournal_segments %d\njournal_syncs %d\njournal_compactions %d\njournal_dropped_ops %d\nrecovered_puts %d\n",
				boolToInt(dur.recovered.Load()), ds.LiveObjects, ds.LiveBytes, ds.LogBytes, ds.Segments, ds.Syncs, ds.Compactions, ds.DroppedOps, ds.RecoveredPuts)
		}
	})
	if o.pprofAddr != "" {
		// Profiling runs on its own listener so /debug/pprof is never exposed
		// on the serving address. net/http/pprof registers its handlers on
		// http.DefaultServeMux.
		//lint:ignore goctx the pprof side listener intentionally lives for the whole process; it holds no connections the drain path must quiesce
		go func() {
			fmt.Fprintf(os.Stderr, "darwin-proxy: pprof on http://%s/debug/pprof/\n", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "darwin-proxy: pprof listener:", err)
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "darwin-proxy: %s mode, listening on %s, origin %s (shards=%d, resilient=%v, overload=%v)\n", o.mode, o.addr, o.origin, o.shards, o.resilient, o.overload)
	if err := server.Run(context.Background(), &http.Server{Addr: o.addr, Handler: mux}, health, o.lameDuck, o.drain); err != nil {
		fatal(err)
	}
	if clustered {
		// The server has drained, so the state below is quiesced — hand it to
		// the ring successor (the node inheriting this keyspace). Best
		// effort: a dead or refusing successor just starts cold, as before.
		hctx, hcancel := context.WithTimeout(context.Background(), o.drain)
		if succ, err := proxy.PushStateToSuccessor(hctx, nil); err != nil {
			fmt.Fprintf(os.Stderr, "darwin-proxy: state handoff skipped: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "darwin-proxy: state handed off to ring successor %d\n", succ)
		}
		hcancel()
	}
	if dur != nil {
		// The server has drained: capture a final quiesced checkpoint and
		// close the journal cleanly.
		dur.close()
	}
	st := proxy.Stats()
	fmt.Fprintf(os.Stderr, "darwin-proxy: %d origin fetches, %d retries, %d coalesced, %d stale serves, %d fetch failures\n",
		st.OriginFetches, st.Retries, st.Coalesced, st.StaleServes, st.FetchFailures)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "darwin-proxy:", err)
	os.Exit(1)
}
