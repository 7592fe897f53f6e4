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
	"os/signal"
	"strings"
	"syscall"
	"time"

	"darwin/internal/baselines"
	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/exp"
	"darwin/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		origin    = flag.String("origin", "http://127.0.0.1:9000", "origin base URL")
		dcLatency = flag.Duration("dc-latency", 2*time.Millisecond, "injected disk-read delay")
		mode      = flag.String("mode", "darwin", "darwin | static")
		f         = flag.Int("f", 2, "static expert frequency threshold")
		s         = flag.Int64("s", 10<<10, "static expert size threshold (bytes)")
		hoc       = flag.Int64("hoc", 2<<20, "HOC bytes")
		dc        = flag.Int64("dc", 200<<20, "DC bytes")
		objective = flag.String("objective", "ohr", "darwin objective: ohr | bmr | combined")
		shards    = flag.Int("shards", 0, "cache engine shard count (0 = auto from GOMAXPROCS, 1 = serial/global-lock data plane)")
		pubEvery  = flag.Int("publish-every", 32, "requests per shard between metric-mirror publications (1 = publish every request)")
		pprofAddr = flag.String("pprof", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
		modelPath = flag.String("model", "", "pre-trained model file from darwin-train (skips startup training)")

		dataDir    = flag.String("data-dir", "", "durable state directory: DC journal + learned-state checkpoints (empty = in-memory only)")
		fsyncPol   = flag.String("fsync", "batch", "journal fsync policy: batch | always | off")
		fsyncBatch = flag.Int("fsync-batch", 256, "journal appends per fsync under -fsync=batch")
		segBytes   = flag.Int64("segment-bytes", 16<<20, "journal segment size before rotation (bytes)")
		ckptEvery  = flag.Duration("checkpoint-interval", 30*time.Second, "learned-state checkpoint period (0 = checkpoint only at shutdown)")

		resilient    = flag.Bool("resilient", true, "enable the fault-tolerance layer (retries, coalescing, serve-stale)")
		retries      = flag.Int("retries", 4, "total origin fetch attempts per miss (1 = no retry)")
		fetchTimeout = flag.Duration("fetch-timeout", 2*time.Second, "per-attempt origin fetch deadline")
		backoff      = flag.Duration("backoff", 5*time.Millisecond, "base retry backoff (doubles per retry, jittered)")
		backoffMax   = flag.Duration("backoff-max", 250*time.Millisecond, "retry backoff cap")
		coalesce     = flag.Bool("coalesce", true, "single-flight coalescing of concurrent misses")
		serveStale   = flag.Bool("serve-stale", true, "serve previously-seen objects stale when the origin is down")
		drain        = flag.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
		lameDuck     = flag.Duration("lame-duck", 300*time.Millisecond, "keep serving after readyz/gossip flip to 503 so probers observe the drain verdict before the listener closes")

		peers       = flag.String("peers", "", "comma-separated cluster node base URLs (enables peer cache fill; must include -self)")
		self        = flag.String("self", "", "this node's own entry in -peers")
		peerFanout  = flag.Int("peer-fanout", 2, "max ring siblings probed per miss")
		peerTimeout = flag.Duration("peer-timeout", 150*time.Millisecond, "per-sibling probe deadline")
		gossipOn    = flag.Bool("gossip", true, "SWIM-style membership: piggyback heartbeat digests on peer probes and serve /gossip")
		handoffOn   = flag.Bool("handoff", true, "serve /state and push learned state to the ring successor on drain")

		overload       = flag.Bool("overload", true, "enable the overload-protection layer (breaker, admission, deadlines, hedging)")
		maxInflight    = flag.Int64("max-inflight", 512, "admission control: max concurrently admitted requests (0 = unlimited)")
		propagateDL    = flag.Bool("propagate-deadline", true, "honor the client X-Darwin-Deadline-Ms header")
		minFetchBudget = flag.Duration("min-fetch-budget", 50*time.Millisecond, "shed misses whose remaining deadline is below this floor")
		hedge          = flag.Duration("hedge", 25*time.Millisecond, "hedged second origin fetch delay (0 = no hedging)")
		retryBudget    = flag.Int64("retry-budget", 0, "max retries per window (0 = breaker half-open probe budget, <0 = uncapped)")
		brkWindow      = flag.Duration("brk-window", time.Second, "circuit breaker rolling window")
		brkThreshold   = flag.Float64("brk-threshold", 0.5, "circuit breaker failure-ratio trip threshold")
		brkMinRequests = flag.Int64("brk-min-requests", 10, "circuit breaker volume floor before tripping")
		brkOpenFor     = flag.Duration("brk-open-for", 250*time.Millisecond, "circuit breaker cool-off before half-open")
		brkProbes      = flag.Int64("brk-probes", 3, "circuit breaker half-open probe budget")
	)
	flag.Parse()
	if *shards <= 0 {
		*shards = cache.AutoShards()
	}
	// Outside input is checked once, here, before a model is trained or a
	// listener opened (-self/-peers by SetPeers below, also before listening).
	res := server.Resilience{
		MaxAttempts:  *retries,
		FetchTimeout: *fetchTimeout,
		BackoffBase:  *backoff,
		BackoffMax:   *backoffMax,
		Coalesce:     *coalesce,
		ServeStale:   *serveStale,
		Seed:         1,
	}
	ov := server.Overload{
		Enabled: true,
		Breaker: breaker.Config{
			Window:           *brkWindow,
			FailureThreshold: *brkThreshold,
			MinRequests:      *brkMinRequests,
			OpenFor:          *brkOpenFor,
			HalfOpenProbes:   *brkProbes,
		},
		MaxInFlight:       *maxInflight,
		PropagateDeadline: *propagateDL,
		MinFetchBudget:    *minFetchBudget,
		Hedge:             *hedge,
		RetryBudget:       *retryBudget,
	}
	if err := errors.Join(res.Validate(), ov.Validate()); err != nil {
		fatal(err)
	}
	// Switching a layer off passes its zero config: the same pipeline with
	// those stages absent.
	if !*resilient {
		res = server.Resilience{}
	}
	if !*overload {
		ov = server.Overload{}
	}
	var (
		dec server.Decider
		err error
	)
	// Durable state: open the DC journal and load any checkpoint before
	// building engines, so both plug into the construction below.
	var dur *durability
	var dclog cache.DCLog
	if *dataDir != "" {
		dur, err = openDurability(*dataDir, *fsyncPol, *fsyncBatch, *segBytes, *ckptEvery)
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
	switch *mode {
	case "static":
		var st *baselines.Static
		st, err = baselines.NewStaticSharded(cache.Expert{Freq: *f, MaxSize: *s},
			cache.EvalConfig{HOCBytes: *hoc, DCBytes: *dc, DCLog: dclog}, *shards)
		if err == nil {
			dec = st
			shEng = st.Engine().(*cache.Sharded)
		}
	case "darwin":
		sc := exp.Default()
		sc.Eval.HOCBytes = *hoc
		sc.Eval.DCBytes = *dc
		switch {
		case *modelPath != "":
			var fd *os.File
			fd, err = os.Open(*modelPath)
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
			c, err = exp.BuildCorpus(sc, *objective)
			if err == nil {
				model = c.Model
			}
		}
		if err == nil {
			if model.FeatureWindow > 0 {
				sc.Online.Warmup = model.FeatureWindow
			}
			var eng *cache.Sharded
			eng, err = cache.NewSharded(cache.Config{HOCBytes: *hoc, DCBytes: *dc, DCLog: dclog}, *shards)
			if err == nil {
				ctrl, err = core.NewController(model, eng, sc.Online)
				if err == nil {
					dec = ctrl
					shEng = eng
				}
			}
		}
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fatal(err)
	}
	if dur != nil {
		dur.attach(shEng, ctrl, model)
	}
	// Batched counter publication: shards accumulate metric deltas locally and
	// publish the whole consistent block every K requests, keeping the seqlock
	// fences off the per-request path. Round-boundary and /metrics reads go
	// through SyncMetrics, so learning and reporting still see exact counts.
	shEng.SetPublishEvery(*pubEvery)

	proxy := server.NewOverloadProxy(dec, *origin, *dcLatency, res, ov)
	clustered := *peers != ""
	if clustered {
		if err := proxy.SetPeers(server.PeerConfig{
			Self:          *self,
			Nodes:         strings.Split(*peers, ","),
			Fanout:        *peerFanout,
			FetchTimeout:  *peerTimeout,
			DisableGossip: !*gossipOn,
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "darwin-proxy: peer fill over %s (self %s, gossip=%v)\n", *peers, *self, *gossipOn)
		if *handoffOn && shEng != nil {
			proxy.EnableStateHandoff(server.StateHandoff{
				Provide: handoffProvider(shEng, ctrl, model),
				Accept:  handoffAcceptor(shEng, ctrl),
			})
		}
	}
	gates := []server.Gate{{Name: "breaker", Ready: proxy.Ready}}
	if dur != nil {
		// The proxy serves during recovery (cache misses are correct, just
		// cold), but /readyz holds 503 so balancers don't route to a
		// still-warming instance.
		gates = append(gates, server.Gate{Name: "recovery", Ready: dur.recovered.Load})
	}
	health := server.NewHealth(gates...)
	mux := http.NewServeMux()
	mux.Handle("/obj/", proxy)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	if clustered {
		// /gossip is drain-gated: a draining node answers 503, which the
		// front tier reads as an explicit "stop routing here" — immediate
		// weight shed, no waiting for phi to accrue.
		mux.HandleFunc("/gossip", func(w http.ResponseWriter, r *http.Request) {
			if health.Draining() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			proxy.ServeGossip(w, r)
		})
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
		if memb := proxy.Membership(); memb != nil {
			for i := 0; i < memb.Nodes(); i++ {
				if i == memb.Self() {
					continue
				}
				fmt.Fprintf(w, "gossip_peer_status{node=%d} %d\ngossip_peer_phi{node=%d} %.3f\n",
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
	if *pprofAddr != "" {
		// Profiling runs on its own listener so /debug/pprof is never exposed
		// on the serving address. net/http/pprof registers its handlers on
		// http.DefaultServeMux.
		//lint:ignore goctx the pprof side listener intentionally lives for the whole process; it holds no connections the drain path must quiesce
		go func() {
			fmt.Fprintf(os.Stderr, "darwin-proxy: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "darwin-proxy: pprof listener:", err)
			}
		}()
	}
	// Timeouts close slowloris-style connections that trickle headers or
	// hold sockets idle; graceful shutdown drains in-flight requests.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	fmt.Fprintf(os.Stderr, "darwin-proxy: %s mode, listening on %s, origin %s (shards=%d, resilient=%v, overload=%v)\n", *mode, *addr, *origin, *shards, *resilient, *overload)
	if err := runServer(srv, *drain, *lameDuck, health); err != nil {
		fatal(err)
	}
	if clustered && *handoffOn && shEng != nil {
		// The server has drained, so the state below is quiesced — hand it to
		// the ring successor (the node inheriting this keyspace). Best
		// effort: a dead or refusing successor just starts cold, as before.
		hctx, hcancel := context.WithTimeout(context.Background(), *drain)
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

// runServer serves until SIGINT/SIGTERM, then runs the health-gated drain:
// /readyz and /gossip flip to 503 first, the lame-duck window keeps the
// listener open so probers actually observe that explicit verdict (an
// immediate Shutdown would close the listener and make a graceful drain look
// like a crash — refused probes — which the graded membership layer
// deliberately sheds slowly), and only then are in-flight connections
// drained for up to the given deadline.
func runServer(srv *http.Server, drain, lameDuck time.Duration, health *server.Health) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	health.StartDrain()
	fmt.Fprintln(os.Stderr, "darwin-proxy: draining (readyz now 503), shutting down...")
	if lameDuck > 0 {
		time.Sleep(lameDuck)
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "darwin-proxy:", err)
	os.Exit(1)
}
