// Package gossip is the cluster's SWIM-style membership layer: a
// phi-accrual failure detector over heartbeat digests that nodes piggyback
// on the peer-probe HTTP path (and exchange on /gossip). It replaces the
// front tier's binary /readyz verdict with a graded one:
//
//   - alive:   heartbeats arrive on cadence — full ring weight.
//   - suspect: the inter-arrival gap is statistically unusual (phi above
//     PhiSuspect) — partial weight, so one slow probe costs a slice of
//     traffic, never the whole keyspace.
//   - dead:    the gap is overwhelming (phi above PhiDead) AND the node has
//     dwelt in suspicion for MinDwell — zero weight.
//
// Heartbeats are monotone sequence numbers. A digest entry whose sequence
// exceeds the locally known one is proof of life at local receive time no
// matter who delivered it, so a node unreachable on one edge of an
// asymmetric partition stays alive as long as any mutually reachable peer
// relays its rising sequence.
//
// The package is deterministic by construction (a darwinlint determinism
// package): it never reads the wall clock — Config.Clock is mandatory and
// every arrival is stamped through it — so experiments drive membership on
// simulated time and replay bit-identically.
package gossip

import (
	"fmt"
	"sync"
	"time"
)

// Status is a node's graded membership state.
type Status uint8

const (
	// Alive: heartbeats arriving on cadence (or nothing known yet — a node
	// is presumed alive until evidence accrues against it).
	Alive Status = iota
	// Suspect: the current heartbeat gap is unusual (phi >= PhiSuspect).
	// A suspect node keeps SuspectWeight of its ring weight.
	Suspect
	// Dead: the gap is overwhelming (phi >= PhiDead) and the node dwelt in
	// suspicion for at least MinDwell. Zero ring weight.
	Dead
)

// String names the status for logs and metrics.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "invalid"
}

// ln10 converts the exponential-model survival probability into the
// phi-accrual scale: phi = elapsed / (mean * ln 10) is the standard
// suspicion level of the phi-accrual detector under exponentially
// distributed inter-arrivals (phi 1 ~ "one in ten chance this gap is
// benign", phi 2 ~ one in a hundred, ...).
const ln10 = 2.302585092994046

// Config parameterises a Membership.
type Config struct {
	// Nodes is the cluster size; node indexes are [0, Nodes).
	Nodes int
	// Self is this node's own index in the shared node order, or -1 for an
	// observer (the front tier): observers merge digests and grade peers but
	// emit no heartbeats of their own.
	Self int
	// HeartbeatEvery is the expected heartbeat cadence — the inter-arrival
	// mean assumed before enough samples accrue, and the floor under the
	// observed mean so scheduling jitter cannot shrink it into a hair
	// trigger. Default 250 ms (the front tier's probe period).
	HeartbeatEvery time.Duration
	// PhiSuspect and PhiDead are the suspicion thresholds (defaults 1.5
	// and 8): at the default cadence a node turns suspect after roughly a
	// missed beat and a half, and can only be declared dead after a gap an
	// order of magnitude beyond anything plausible.
	PhiSuspect float64
	PhiDead    float64
	// MinDwell is the hysteresis dwell: a node must sit in Suspect at least
	// this long before it may be promoted to Dead OR demoted back to Alive
	// (default 2 s). One slow probe therefore costs at most the suspect
	// weight slice for MinDwell — never a full weight shed — and a
	// recovering node cannot flap the ring at probe frequency.
	MinDwell time.Duration
	// SuspectWeight is the ring weight of a suspect node in [0,1)
	// (default 0.5).
	SuspectWeight float64
	// Window is how many inter-arrival samples the per-node estimator keeps
	// (default 32).
	Window int
	// MinSamples is how many samples must accrue before the observed mean
	// replaces HeartbeatEvery as the phi basis (default 3).
	MinSamples int
	// Clock supplies the current time. Mandatory — the package never reads
	// the wall clock itself; live callers pass time.Now, experiments pass a
	// simulated clock.
	Clock func() time.Time
	// OnChange, when set, observes every status transition. Called with the
	// membership lock held: keep it cheap (counters, a log line).
	OnChange func(node int, from, to Status)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.PhiSuspect <= 0 {
		c.PhiSuspect = 1.5
	}
	if c.PhiDead <= 0 {
		c.PhiDead = 8
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 2 * time.Second
	}
	if c.SuspectWeight <= 0 || c.SuspectWeight >= 1 {
		c.SuspectWeight = 0.5
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	return c
}

// peer is one node's detector state.
type peer struct {
	seq   uint64    // highest heartbeat sequence seen (0 = never heard)
	last  time.Time // local arrival time of that heartbeat
	state Status
	since time.Time // when state was entered

	// Inter-arrival ring buffer (seconds) and its running sum.
	samples []float64
	head    int
	count   int
	sum     float64
}

// Membership is one node's (or observer's) view of the cluster. All methods
// are safe for concurrent use; the evaluation work per call is a few float
// operations per node.
type Membership struct {
	cfg Config

	mu    sync.Mutex
	peers []peer // guarded by mu
	self  uint64 // guarded by mu; own heartbeat sequence (Self >= 0 only)
}

// New builds a Membership. Clock is mandatory and Nodes must cover Self.
func New(cfg Config) (*Membership, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("gossip: need Nodes > 0, got %d", cfg.Nodes)
	}
	if cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("gossip: Self %d out of range [0,%d)", cfg.Self, cfg.Nodes)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("gossip: Config.Clock is mandatory (pass time.Now for live use)")
	}
	cfg = cfg.withDefaults()
	peers := make([]peer, cfg.Nodes)
	for i := range peers {
		peers[i].samples = make([]float64, cfg.Window)
	}
	return &Membership{cfg: cfg, peers: peers}, nil
}

// Nodes returns the cluster size.
func (m *Membership) Nodes() int { return m.cfg.Nodes }

// Self returns this membership's own node index (-1 for observers).
func (m *Membership) Self() int { return m.cfg.Self }

// Beat advances and returns this node's own heartbeat sequence — call it
// whenever a digest is about to leave the process, so every emission is a
// fresh proof of life. Observers (Self < 0) return 0.
func (m *Membership) Beat() uint64 {
	if m.cfg.Self < 0 {
		return 0
	}
	m.mu.Lock()
	m.self++
	s := m.self
	m.mu.Unlock()
	return s
}

// Heartbeat records a direct proof of life from node carrying sequence seq,
// stamped at the injected clock's now. Stale or repeated sequences are
// ignored — only a sequence advance is evidence.
func (m *Membership) Heartbeat(node int, seq uint64) {
	if node < 0 || node >= m.cfg.Nodes || node == m.cfg.Self {
		return
	}
	now := m.cfg.Clock()
	m.mu.Lock()
	m.beatLocked(node, seq, now)
	m.mu.Unlock()
}

// beatLocked folds one sequence advance into node's estimator.
func (m *Membership) beatLocked(node int, seq uint64, now time.Time) {
	p := &m.peers[node]
	if seq <= p.seq {
		return
	}
	if p.seq > 0 {
		gap := now.Sub(p.last).Seconds()
		if gap > 0 {
			if p.count == len(p.samples) {
				m.evictSampleLocked(p)
			}
			p.samples[p.head] = gap
			p.head++
			if p.head == len(p.samples) {
				p.head = 0
			}
			p.count++
			p.sum += gap
		}
	} else {
		p.since = now // first contact anchors the state clock
	}
	p.seq = seq
	p.last = now
}

// evictSampleLocked drops the oldest inter-arrival sample.
func (m *Membership) evictSampleLocked(p *peer) {
	tail := p.head // head == tail when full
	p.sum -= p.samples[tail]
	p.count--
}

// Merge folds a remote digest in: every entry whose sequence exceeds the
// locally known one is an indirect heartbeat at local receive time. Entries
// about self or out-of-range nodes are ignored. sender is the digest's
// origin node (-1 when unknown or an observer): the sender's entry about
// itself is authoritative, so a *lower* nonzero self-reported sequence means
// the process restarted — the estimator resets and the new sequence is
// accepted, instead of ignoring the reborn node until it out-counts its
// previous life. Returns how many entries advanced local knowledge.
func (m *Membership) Merge(sender int, entries []Entry) int {
	now := m.cfg.Clock()
	advanced := 0
	m.mu.Lock()
	for _, e := range entries {
		node := int(e.Node)
		if node >= m.cfg.Nodes || node == m.cfg.Self {
			continue
		}
		p := &m.peers[node]
		if node == sender && e.Seq > 0 && e.Seq < p.seq {
			// Self-report below what we know: the node restarted and its
			// sequence began again. Forget the old life.
			m.resetLocked(node)
		}
		if e.Seq > m.peers[node].seq {
			m.beatLocked(node, e.Seq, now)
			advanced++
		}
	}
	m.mu.Unlock()
	return advanced
}

// resetLocked forgets node's detector history (restart handling).
func (m *Membership) resetLocked(node int) {
	p := &m.peers[node]
	samples := p.samples
	*p = peer{samples: samples}
}

// Digest appends this membership's current view to dst: one entry per node
// with a known sequence, plus the self entry (sequence as of the last Beat).
// Call Beat first when emitting, so the digest carries a fresh proof of
// life. Entries are in node order — deterministic output.
func (m *Membership) Digest(dst []Entry) []Entry {
	now := m.cfg.Clock()
	m.mu.Lock()
	for i := range m.peers {
		if i == m.cfg.Self {
			dst = append(dst, Entry{Node: uint16(i), Seq: m.self, Status: uint8(Alive)})
			continue
		}
		p := &m.peers[i]
		if p.seq == 0 {
			continue
		}
		st := m.evalLocked(i, now)
		dst = append(dst, Entry{Node: uint16(i), Seq: p.seq, Status: uint8(st)})
	}
	m.mu.Unlock()
	return dst
}

// phiLocked computes node's current suspicion level: elapsed time since the
// last heartbeat over the mean inter-arrival, on the phi-accrual log scale.
// Nodes never heard from have phi 0 (presumed alive until evidence accrues).
func (m *Membership) phiLocked(node int, now time.Time) float64 {
	p := &m.peers[node]
	if p.seq == 0 {
		return 0
	}
	mean := m.cfg.HeartbeatEvery.Seconds()
	if p.count >= m.cfg.MinSamples {
		if observed := p.sum / float64(p.count); observed > mean {
			mean = observed
		}
	}
	elapsed := now.Sub(p.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return elapsed / (mean * ln10)
}

// evalLocked advances node's graded state machine against the clock and
// returns the resulting status. Transitions:
//
//	Alive   -> Suspect  when phi >= PhiSuspect (immediate: suspicion is cheap)
//	Suspect -> Dead     when phi >= PhiDead AND dwelt >= MinDwell
//	Suspect -> Alive    when phi <  PhiSuspect AND dwelt >= MinDwell
//	Dead    -> Suspect  when phi <  PhiSuspect (recovery walks back gradually)
//
// The dwell on both Suspect exits is the hysteresis: a flapping node
// oscillates between full and suspect weight at MinDwell frequency at worst,
// and never sheds its full weight unless phi stays overwhelming for a dwell.
func (m *Membership) evalLocked(node int, now time.Time) Status {
	if node == m.cfg.Self {
		return Alive
	}
	p := &m.peers[node]
	phi := m.phiLocked(node, now)
	from := p.state
	switch p.state {
	case Alive:
		if phi >= m.cfg.PhiSuspect {
			p.state, p.since = Suspect, now
		}
	case Suspect:
		if now.Sub(p.since) >= m.cfg.MinDwell {
			if phi >= m.cfg.PhiDead {
				p.state, p.since = Dead, now
			} else if phi < m.cfg.PhiSuspect {
				p.state, p.since = Alive, now
			}
		}
	case Dead:
		if phi < m.cfg.PhiSuspect {
			p.state, p.since = Suspect, now
		}
	}
	if p.state != from && m.cfg.OnChange != nil {
		m.cfg.OnChange(node, from, p.state)
	}
	return p.state
}

// Phi returns node's current suspicion level (0 when unknown or self).
func (m *Membership) Phi(node int) float64 {
	if node < 0 || node >= m.cfg.Nodes || node == m.cfg.Self {
		return 0
	}
	now := m.cfg.Clock()
	m.mu.Lock()
	phi := m.phiLocked(node, now)
	m.mu.Unlock()
	return phi
}

// Status evaluates and returns node's graded state.
func (m *Membership) Status(node int) Status {
	if node < 0 || node >= m.cfg.Nodes {
		return Dead
	}
	if node == m.cfg.Self {
		return Alive
	}
	now := m.cfg.Clock()
	m.mu.Lock()
	st := m.evalLocked(node, now)
	m.mu.Unlock()
	return st
}

// Weight maps node's status to a ring weight: Alive 1, Suspect
// SuspectWeight, Dead 0.
func (m *Membership) Weight(node int) float64 {
	switch m.Status(node) {
	case Alive:
		return 1
	case Suspect:
		return m.cfg.SuspectWeight
	}
	return 0
}

// Dead reports whether node has been declared dead.
func (m *Membership) Dead(node int) bool { return m.Status(node) == Dead }

// Heard reports whether any heartbeat from node was ever observed.
func (m *Membership) Heard(node int) bool {
	if node < 0 || node >= m.cfg.Nodes {
		return false
	}
	m.mu.Lock()
	h := m.peers[node].seq > 0
	m.mu.Unlock()
	return h
}

// Seq returns the highest heartbeat sequence observed for node (own
// sequence for self).
func (m *Membership) Seq(node int) uint64 {
	if node < 0 || node >= m.cfg.Nodes {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if node == m.cfg.Self {
		return m.self
	}
	return m.peers[node].seq
}
