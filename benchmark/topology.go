package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/exp"
	"darwin/internal/server"
)

// edgeNode is one caching node as cmd/darwin-proxy deploys it: an online
// controller over a sharded engine with batched counter publication, a
// batch-synced DC journal, and the resilient + overload-protected proxy.
type edgeNode struct {
	store *diskcache.Store
	eng   *cache.Sharded
	ctl   *core.Controller
	proxy *server.Proxy
	srv   *httptest.Server
}

// newEngine builds the engine and controller every workload shares (sim-shift
// uses it bare, the HTTP workloads behind a proxy). A nil log means no
// journal; a non-nil tracer puts the span wrappers on every seam.
func newEngine(c *exp.Corpus, log cache.DCLog, t *tracer) (*cache.Sharded, *core.Controller, error) {
	if log != nil && t != nil {
		log = tracedLog{inner: log, t: t}
	}
	eng, err := cache.NewSharded(cache.Config{
		HOCBytes: c.Scale.Eval.HOCBytes,
		DCBytes:  c.Scale.Eval.DCBytes,
		DCLog:    log,
	}, cache.AutoShards())
	if err != nil {
		return nil, nil, err
	}
	// As cmd/darwin-proxy's -publish-every default: the benchmark prices the
	// deployed fast path, not the publish-per-request debug setting.
	eng.SetPublishEvery(32)
	var seam cache.Engine = eng
	if t != nil {
		seam = tracedEngine{inner: eng, t: t}
	}
	ctl, err := core.NewController(c.Model, seam, c.Scale.Online)
	if err != nil {
		return nil, nil, err
	}
	return eng, ctl, nil
}

func newEdgeNode(c *exp.Corpus, originURL, dir string, t *tracer) (*edgeNode, error) {
	store, err := diskcache.Open(diskcache.Config{Dir: dir, Sync: diskcache.SyncBatch})
	if err != nil {
		return nil, err
	}
	eng, ctl, err := newEngine(c, store, t)
	if err != nil {
		_ = store.Close() // already failing; the construction error is the one to report
		return nil, err
	}
	var dec server.Decider = ctl
	if t != nil {
		dec = tracedDecider{inner: ctl, t: t}
	}
	n := &edgeNode{store: store, eng: eng, ctl: ctl}
	n.proxy = server.NewOverloadProxy(dec, originURL, 0, server.DefaultResilience(), server.DefaultOverload())
	n.srv = httptest.NewUnstartedServer(traced(n.proxy, t, lyProxy))
	return n, nil
}

func traced(h http.Handler, t *tracer, l layer) http.Handler {
	if t == nil {
		return h
	}
	return tracedHandler{inner: h, t: t, layer: l}
}

// topology is one workload's system under test, in this process: origin,
// one or three edge nodes, and (for three) the front tier. Everything talks
// over the host loopback with no injected latency.
type topology struct {
	dir       string
	origin    *server.Origin
	originSrv *httptest.Server
	nodes     []*edgeNode
	front     *server.Front
	frontSrv  *httptest.Server
	url       string // where clients send
}

func serverURL(s *httptest.Server) string { return "http://" + s.Listener.Addr().String() }

// buildTopology constructs and starts the topology from the public
// constructors. dir holds the journals and is removed on close.
func buildTopology(c *exp.Corpus, nodes int, dir string, t *tracer) (tp *topology, err error) {
	tp = &topology{dir: dir, origin: &server.Origin{}}
	defer func() {
		if err != nil {
			_ = tp.close() // already failing; the construction error is the one to report
			tp = nil
		}
	}()
	tp.originSrv = httptest.NewServer(traced(tp.origin, t, lyOrigin))
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		n, err := newEdgeNode(c, tp.originSrv.URL, filepath.Join(dir, fmt.Sprintf("node%d", i)), t)
		if err != nil {
			return nil, err
		}
		tp.nodes = append(tp.nodes, n)
		urls[i] = serverURL(n.srv)
	}
	if nodes == 1 {
		tp.nodes[0].srv.Start()
		tp.url = urls[0]
		return tp, nil
	}
	// Peers are wired before any listener accepts, so the data plane never
	// sees a half-configured node.
	for i, n := range tp.nodes {
		if err := n.proxy.SetPeers(server.PeerConfig{Self: urls[i], Nodes: urls}); err != nil {
			return nil, err
		}
	}
	for _, n := range tp.nodes {
		n.srv.Start()
	}
	tp.front, err = server.NewFront(server.FrontConfig{Backends: urls})
	if err != nil {
		return nil, err
	}
	tp.frontSrv = httptest.NewServer(traced(tp.front, t, lyFront))
	tp.url = tp.frontSrv.URL
	return tp, nil
}

// close stops every server (which waits for its connections' goroutines),
// closes the journals and removes their directory.
func (tp *topology) close() error {
	if tp.frontSrv != nil {
		tp.frontSrv.Close()
	}
	var errs []error
	for _, n := range tp.nodes {
		n.srv.Close()
		errs = append(errs, n.store.Close())
	}
	if tp.originSrv != nil {
		tp.originSrv.Close()
	}
	// The proxies fetch through http.DefaultTransport; its idle connections
	// would otherwise outlive the topology.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	errs = append(errs, os.RemoveAll(tp.dir))
	return errors.Join(errs...)
}

// counters is one reading of every layer's public counters, summed over
// nodes; the difference of two readings gives a pass's per-layer counts.
type counters [numCounters]int64

const (
	ctRequests = iota // decider requests (client requests + sibling probes served)
	ctBytes
	ctHOCHits
	ctDCHits
	ctMisses
	ctOriginFetches
	ctRetries
	ctCoalesced
	ctShed
	ctHedges
	ctPeerProbes
	ctPeerFills
	ctPeerServed
	ctFailovers
	ctAppends
	ctSyncs
	ctLogBytes
	ctOriginRequests
	ctOriginBytes
	ctLearnNS
	ctExpertSwitches
	numCounters
)

func (tp *topology) read() counters {
	var c counters
	for _, n := range tp.nodes {
		m := n.proxy.Metrics()
		c[ctRequests] += m.Requests
		c[ctBytes] += m.Bytes
		c[ctHOCHits] += m.HOCHits
		c[ctDCHits] += m.DCHits
		c[ctMisses] += m.Misses
		s := n.proxy.Stats()
		c[ctOriginFetches] += s.OriginFetches
		c[ctRetries] += s.Retries
		c[ctCoalesced] += s.Coalesced
		c[ctShed] += s.Shed
		c[ctHedges] += s.Hedges
		c[ctPeerProbes] += s.PeerProbes
		c[ctPeerFills] += s.PeerFills
		c[ctPeerServed] += s.PeerServed
		j := n.store.Stats()
		c[ctAppends] += j.Appends
		c[ctSyncs] += j.Syncs
		c[ctLogBytes] += j.LogBytes
		c[ctLearnNS] += n.ctl.LearningDuration().Nanoseconds()
		c[ctExpertSwitches] += n.eng.ExpertSwitches()
	}
	if tp.front != nil {
		c[ctFailovers] = tp.front.Stats().Failovers
	}
	c[ctOriginRequests], c[ctOriginBytes] = tp.origin.Stats()
	return c
}

func (c counters) sub(p counters) counters {
	for i := range c {
		c[i] -= p[i]
	}
	return c
}
