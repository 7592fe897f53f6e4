package exp

// The rig is the cluster harness the crash, cluster and flap experiments run
// on: deployed nodes (node.Node — the constructor cmd/darwin-proxy calls) and
// a deployed front tier (server.Front) on loopback listeners over one origin,
// driven by one serial closed-loop client. Nothing in it models a node or the
// front; an experiment is a schedule of requests, probes and lifecycle events
// over the real handlers, and every outcome is read from a surface the
// deployment has — X-Cache and X-Darwin-Peer response headers, Proxy.Stats,
// Proxy.Metrics, Front.Stats / Weights, Origin.Stats, /metrics.
//
// Reports stay deterministic per seed because nothing that reaches a cell
// depends on the wall clock: the driver is serial, the nodes run static
// experts (ServeHTTP's wall-clock Request.Time is never read), membership and
// every breaker are graded on the rig's simulated clock, the front is probed
// by the schedule (Front.ProbeOnce) rather than by its ticker, and the
// real-time deadlines that remain (fetch, peer-probe and poll timeouts) are
// set far beyond any loopback exchange, with hedging — the one stage whose
// timer fires on a healthy fetch — off.

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
	"darwin/internal/gossip"
	"darwin/internal/node"
	"darwin/internal/server"
	"darwin/internal/trace"
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

// simClock is the injected time source: it only moves when the schedule
// advances it. Handlers read it from their own goroutines, hence the atomic.
type simClock struct{ ns atomic.Int64 }

func (c *simClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *simClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// rig is one experiment's deployment.
type rig struct {
	clk       simClock
	origin    *server.Origin
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

func newRig() *rig {
	r := &rig{origin: &server.Origin{}, client: &http.Client{Transport: &http.Transport{}}}
	r.originSrv = httptest.NewServer(r.origin)
	return r
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

// nodeConfig is what the rig deploys: darwin-proxy's defaults for a static
// expert on one shard, with the rig's clock behind every breaker and the two
// changes the file comment names (deadlines out of reach, hedging off).
func (r *rig) nodeConfig(e cache.Expert, eval cache.EvalConfig) node.Config {
	cfg := node.Config{
		Expert:     e,
		HOCBytes:   eval.HOCBytes,
		DCBytes:    eval.DCBytes,
		Shards:     1,
		Origin:     r.originSrv.URL,
		Resilience: server.DefaultResilience(),
		Overload:   server.DefaultOverload(),
	}
	cfg.Resilience.FetchTimeout = rigDeadline
	cfg.Overload.Hedge = 0
	cfg.Overload.Breaker.Clock = r.clk.Now
	return cfg
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
				Clock:        r.clk.Now,
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
