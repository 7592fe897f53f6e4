package exp

// The rig is the testbed every HTTP experiment runs on: deployed nodes
// (node.Node — the constructor cmd/darwin-proxy calls) and, for the cluster
// experiments, a deployed front tier (server.Front) on loopback listeners over
// one origin handler the experiment supplies (an Origin with injected latency,
// or one wrapped in a fault injector). A node runs a static expert or
// Darwin's learner. Nothing in the rig models a node or the front; an
// experiment is a schedule of requests, probes and lifecycle events over the
// real handlers, and every outcome is read from a surface the deployment has —
// X-Cache and X-Darwin-Peer response headers, Proxy.Stats, Proxy.Metrics,
// Front.Stats / Weights, Origin.Stats, /metrics.
//
// Two kinds of experiment share it. The replays (fig4c, crash, cluster, flap)
// drive a serial client on the rig's simulated clock, and their reports are
// deterministic per seed because nothing that reaches a cell depends on the
// wall clock: request times come from the rig clock (a node's pipeline clock,
// which stamps Request.Time and grades every breaker and membership view), the
// front is probed by the schedule (Front.ProbeOnce) rather than by its ticker,
// and the real-time deadlines that remain (fetch, peer-probe and poll
// timeouts) are set far beyond any loopback exchange, with hedging — the one
// stage whose timer fires on a healthy fetch — off. The measurements (fig7,
// chaos, overload) leave their nodes on the wall clock and drive them with
// server.RunLoad's concurrent client.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"darwin/internal/cache"
	"darwin/internal/faults"
	"darwin/internal/gossip"
	"darwin/internal/node"
	"darwin/internal/server"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

const (
	// rigPerRequest is the simulated time one client request takes.
	rigPerRequest = time.Millisecond
	// rigLameDuck is how long a draining node keeps its listener open after
	// its verdict flips (darwin-proxy's -lame-duck default).
	rigLameDuck = 300 * time.Millisecond
	// rigDeadline replaces every real-time deadline in the rig; none is
	// expected to fire.
	rigDeadline = 30 * time.Second
)

// The rig workload: what every rig experiment but the crash replay serves —
// a static expert admitting anything up to 1 MiB on its first request, a
// 256 KiB HOC over a 32 MiB DC, and a seeded 50:50 Image:Download mix.
var (
	rigExpert = cache.Expert{Freq: 1, MaxSize: 1 << 20}
	rigEval   = cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20}
)

const (
	rigMix  = 50
	rigSeed = 7
)

// simClock is the injected time source: it only moves when the schedule
// advances it. Handlers read it from their own goroutines, hence the atomic.
type simClock struct{ ns atomic.Int64 }

func (c *simClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *simClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }
func (c *simClock) Set(d time.Duration)     { c.ns.Store(int64(d)) }

// rig is one experiment's deployment.
type rig struct {
	clk       simClock
	originSrv *httptest.Server
	nodes     []*rigNode
	front     *server.Front
	frontSrv  *httptest.Server
	client    *http.Client // the driver's
	// severed is the scripted control-plane fault: while it names a node's
	// host, the front's health polls to that node fail at once, as a refused
	// connection does. The data path is untouched. Only the driver goroutine
	// touches it (ProbeOnce polls on its caller's goroutine).
	severed string
}

// rigNode is a deployed node on its loopback listener.
type rigNode struct {
	*node.Node
	srv *httptest.Server
	url string
}

// newRig starts a rig whose nodes fetch their misses from origin.
func newRig(origin http.Handler) *rig {
	return &rig{originSrv: httptest.NewServer(origin), client: &http.Client{Transport: &http.Transport{}}}
}

// close stops every listener the rig still has open.
func (r *rig) close() {
	if r.frontSrv != nil {
		r.frontSrv.Close()
	}
	for _, n := range r.nodes {
		n.srv.Close()
	}
	r.originSrv.Close()
	r.client.CloseIdleConnections()
}

// nodeConfig is what the replays deploy: darwin-proxy's defaults for a
// static expert on one shard, with the rig's clock as the pipeline clock and
// the two changes the file comment names (deadlines out of reach, hedging
// off). A caller that sets Model deploys the learner instead.
func (r *rig) nodeConfig(e cache.Expert, eval cache.EvalConfig) node.Config {
	res, ov := server.DefaultResilience(), server.DefaultOverload()
	res.FetchTimeout = 0 // only the pipeline's 30 s origin backstop
	ov.Hedge = 0
	ov.Clock = r.clk.Now
	cfg := r.config(eval, res, ov)
	cfg.Expert = e
	return cfg
}

// config is a one-shard node over the rig's origin with eval's cache sizes
// and the pipeline stages res and ov; the caller picks the decider (Expert,
// or Model for the learner). A nil ov.Clock leaves the node on the
// wall clock.
func (r *rig) config(eval cache.EvalConfig, res server.Resilience, ov server.Overload) node.Config {
	return node.Config{
		HOCBytes:   eval.HOCBytes,
		DCBytes:    eval.DCBytes,
		Shards:     1,
		Origin:     r.originSrv.URL,
		Resilience: res,
		Overload:   ov,
	}
}

// faultedRun is the measurement chaos and overload share: one node running
// the rig expert with the pipeline stages res and ov (on the wall clock),
// over an origin with pc's latency behind inj, driven with pc.TraceLen
// requests of the rig workload by server.RunLoad's concurrent client. lc
// carries the client's deadline and arrival schedule; the proxy URL,
// concurrency and request timeout are set here. The proxy comes back for its
// counters.
func faultedRun(pc PrototypeConfig, inj *faults.Injector, res server.Resilience, ov server.Overload, lc server.LoadConfig) (server.LoadResult, *server.Proxy, error) {
	tr, err := tracegen.ImageDownloadMix(rigMix, pc.TraceLen, rigSeed)
	if err != nil {
		return server.LoadResult{}, nil, err
	}
	r := newRig(inj.Wrap(&server.Origin{Latency: pc.OriginLatency}))
	defer r.close()
	cfg := r.config(rigEval, res, ov)
	cfg.Expert, cfg.DCLatency = rigExpert, pc.DCLatency
	n, err := r.startNode(cfg)
	if err != nil {
		return server.LoadResult{}, nil, err
	}
	// A wall-clock measurement, not a replay: the outage windows anchor to
	// the physical clock of the live origin server.
	//lint:ignore determinism prototype testbed runs on the physical clock; simulator replays never reach this path
	inj.Restart(time.Now())
	lc.ProxyURL, lc.Concurrency, lc.RequestTimeout = n.url, pc.Concurrency, rigDeadline
	lr, err := server.RunLoad(context.Background(), tr, lc)
	return lr, n.Proxy, err
}

// startNode deploys one node on a fresh listener and waits for its recovery
// gate.
func (r *rig) startNode(cfg node.Config) (*rigNode, error) {
	ns, err := r.startNodes(1, cfg, false)
	if err != nil {
		return nil, err
	}
	return ns[0], nil
}

// startNodes deploys n nodes. When peered they form one peer cluster
// (darwin-proxy's -peers/-self); the listeners exist before any node is built
// because every node's peer list names them all.
func (r *rig) startNodes(n int, cfg node.Config, peered bool) ([]*rigNode, error) {
	nodes := make([]*rigNode, n)
	urls := make([]string, n)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &rigNode{srv: srv, url: "http://" + srv.Listener.Addr().String()}
		urls[i] = nodes[i].url
		r.nodes = append(r.nodes, nodes[i])
	}
	for i, rn := range nodes {
		if peered {
			cfg.Peer = server.PeerConfig{
				Self:         urls[i],
				Nodes:        urls,
				FetchTimeout: rigDeadline,
			}
		}
		var err error
		if rn.Node, err = node.New(cfg); err != nil {
			return nil, err
		}
		rn.srv.Config.Handler = rn.Handler()
		rn.srv.Start()
	}
	for _, rn := range nodes {
		if err := r.waitReady(rn.url); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// startFront deploys the front tier over nodes with the given routing window
// and detector tuning. Its breakers and detector run on the rig's clock, and
// its health polls go through the severable transport.
func (r *rig) startFront(nodes []*rigNode, window int, detector gossip.Config) error {
	detector.Clock = r.clk.Now
	fc := server.FrontConfig{
		RebalanceEvery: window,
		ProbeTimeout:   rigDeadline,
		Client:         &http.Client{Transport: severable{r, &http.Transport{}}},
		Gossip:         detector,
	}
	for _, n := range nodes {
		fc.Backends = append(fc.Backends, n.url)
	}
	f, err := server.NewFront(fc)
	if err != nil {
		return err
	}
	r.front, r.frontSrv = f, httptest.NewServer(f)
	return nil
}

// severable is the front's health-poll transport.
type severable struct {
	r    *rig
	next http.RoundTripper
}

var errSevered = errors.New("exp: probe path severed")

func (s severable) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.r.severed != "" && "http://"+req.URL.Host == s.r.severed {
		return nil, errSevered
	}
	return s.next.RoundTrip(req)
}

// probe is one tick of the front's prober, run by the schedule.
func (r *rig) probe() { r.front.ProbeOnce(context.Background()) }

// rigProbeStride is the front's default probe period in requests.
func rigProbeStride() int {
	return int(server.FrontConfig{}.WithDefaults().ProbeEvery / rigPerRequest)
}

// waitReady polls base's /readyz until it answers 200: the real surface a
// balancer waits on while a node replays its journal. Real time passes here;
// no cell depends on how much.
func (r *rig) waitReady(base string) error {
	for i := 0; i < 100_000; i++ {
		resp, err := r.client.Get(base + "/readyz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // the status is the answer
		_ = resp.Body.Close()                 // read to the end; nothing left to fail
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("exp: %s never became ready", base)
}

// served is what the client saw of one request.
type served struct {
	status int
	hoc    bool // X-Cache: hoc-hit
	dc     bool // X-Cache: dc-hit
	peer   bool // X-Darwin-Peer: fill — a miss filled from a ring sibling
}

// local reports a hit in the answering node's own HOC or DC.
func (s served) local() bool { return s.hoc || s.dc }

// get advances the clock by one request's time and issues req against base
// (the front, or one node directly), reading the whole body.
func (r *rig) get(base string, req trace.Request) (served, error) {
	r.clk.Advance(rigPerRequest)
	return r.issue(base, req)
}

// getAt is get at req's own trace time: the clock is set to req.Time
// microseconds past the rig's zero, so a node built before the first request
// stamps req with exactly its trace time.
func (r *rig) getAt(base string, req trace.Request) (served, error) {
	r.clk.Set(time.Duration(req.Time) * time.Microsecond)
	return r.issue(base, req)
}

// issue requests req from base at the clock's current reading.
func (r *rig) issue(base string, req trace.Request) (served, error) {
	resp, err := r.client.Get(base + "/obj/" + strconv.FormatUint(req.ID, 10) + "?size=" + strconv.FormatInt(req.Size, 10))
	if err != nil {
		return served{}, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return served{}, err
	}
	if resp.StatusCode == http.StatusOK && n != req.Size {
		return served{}, fmt.Errorf("exp: object %d: %d body bytes, want %d", req.ID, n, req.Size)
	}
	xc := resp.Header.Get("X-Cache")
	return served{
		status: resp.StatusCode,
		hoc:    xc == "hoc-hit",
		dc:     xc == "dc-hit",
		peer:   resp.Header.Get(server.PeerHeader) != "",
	}, nil
}

// replay issues reqs against base and returns, per window requests, the
// share the client saw served from the HOC and the share served without the
// origin (HOC, DC, or a sibling's fill).
func (r *rig) replay(base string, reqs []trace.Request, window int) (hoc, hit []float64, err error) {
	var nHOC, nHit int
	for i, req := range reqs {
		s, err := r.get(base, req)
		if err != nil {
			return nil, nil, err
		}
		if s.hoc {
			nHOC++
		}
		if s.local() || s.peer {
			nHit++
		}
		if (i+1)%window == 0 {
			hoc = append(hoc, float64(nHOC)/float64(window))
			hit = append(hit, float64(nHit)/float64(window))
			nHOC, nHit = 0, 0
		}
	}
	return hoc, hit, nil
}

// windowsTo returns how many windows traj needs to first reach target
// (0 = never).
func windowsTo(traj []float64, target float64) int {
	for w, v := range traj {
		if v >= target {
			return w + 1
		}
	}
	return 0
}

// metric reads one counter from base's /metrics exposition.
func (r *rig) metric(base, name string) (int64, error) {
	resp, err := r.client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	m, err := server.ReadMetrics(resp.Body)
	if err != nil {
		return 0, err
	}
	return m.Int(name)
}

// depart finishes a drain (Health.StartDrain flipped the verdict; the
// listener stayed up for the lame-duck window): the listener closes, and the
// node runs its shutdown — the state handoff to its ring successor, then the
// final checkpoint and journal close when it has a data directory.
func (n *rigNode) depart() {
	n.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), rigDeadline)
	defer cancel()
	n.Close(ctx)
}
