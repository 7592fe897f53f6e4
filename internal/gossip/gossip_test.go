package gossip

import (
	"errors"
	"testing"
	"time"
)

// simClock is the injected test clock: tests advance it explicitly, so every
// detector decision is a pure function of the scripted schedule.
type simClock struct{ now time.Time }

func (c *simClock) clock() func() time.Time { return func() time.Time { return c.now } }
func (c *simClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestMembership(t *testing.T, clk *simClock, self int) *Membership {
	t.Helper()
	m, err := New(Config{
		Nodes:          3,
		Self:           self,
		HeartbeatEvery: 250 * time.Millisecond,
		PhiSuspect:     1.5,
		PhiDead:        8,
		MinDwell:       2 * time.Second,
		Clock:          clk.clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	clk := &simClock{}
	if _, err := New(Config{Nodes: 0, Clock: clk.clock()}); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
	if _, err := New(Config{Nodes: 2, Self: 2, Clock: clk.clock()}); err == nil {
		t.Fatal("Self out of range accepted")
	}
	if _, err := New(Config{Nodes: 2, Self: 0}); err == nil {
		t.Fatal("nil Clock accepted")
	}
	// Observers (Self = -1) are valid.
	if _, err := New(Config{Nodes: 2, Self: -1, Clock: clk.clock()}); err != nil {
		t.Fatal(err)
	}
}

// TestPhiAccrual: phi is zero before contact, stays low under on-cadence
// beats, and grows with the gap.
func TestPhiAccrual(t *testing.T) {
	clk := &simClock{}
	m := newTestMembership(t, clk, -1)
	if phi := m.Phi(1); phi != 0 {
		t.Fatalf("phi before contact = %v, want 0", phi)
	}
	seq := uint64(0)
	for i := 0; i < 10; i++ {
		seq++
		m.Heartbeat(1, seq)
		clk.advance(250 * time.Millisecond)
	}
	// One cadence gap: phi = 0.25/(0.25*ln10) ~ 0.43.
	if phi := m.Phi(1); phi < 0.3 || phi > 0.6 {
		t.Fatalf("phi at one cadence = %v, want ~0.43", phi)
	}
	clk.advance(750 * time.Millisecond) // 1 s total gap: phi ~ 1.74
	if phi := m.Phi(1); phi < 1.5 || phi > 2.0 {
		t.Fatalf("phi at 1 s gap = %v, want ~1.74", phi)
	}
	if st := m.Status(1); st != Suspect {
		t.Fatalf("status at phi>threshold = %v, want suspect", st)
	}
}

// TestGradedTransitions walks alive -> suspect -> dead -> suspect -> alive
// and checks the dwell gates both suspect exits.
func TestGradedTransitions(t *testing.T) {
	clk := &simClock{}
	m := newTestMembership(t, clk, -1)
	var transitions []string
	m.cfg.OnChange = func(node int, from, to Status) {
		transitions = append(transitions, from.String()+">"+to.String())
	}
	seq := uint64(0)
	beat := func() { seq++; m.Heartbeat(1, seq) }
	for i := 0; i < 8; i++ {
		beat()
		clk.advance(250 * time.Millisecond)
	}
	if st := m.Status(1); st != Alive {
		t.Fatalf("on-cadence status = %v", st)
	}

	// Silence. Suspicion is immediate once phi crosses, death needs phi >= 8
	// AND a 2 s dwell in suspect.
	clk.advance(time.Second)
	if st := m.Status(1); st != Suspect {
		t.Fatalf("1.25 s gap: status = %v, want suspect", st)
	}
	// phi 8 needs elapsed = 8 * 0.25 * ln10 ~ 4.6 s; dwell passes sooner.
	clk.advance(2 * time.Second)
	if st := m.Status(1); st != Suspect {
		t.Fatalf("3.25 s gap (phi < 8): status = %v, want suspect still", st)
	}
	clk.advance(2 * time.Second)
	if st := m.Status(1); st != Dead {
		t.Fatalf("5.25 s gap: status = %v, want dead", st)
	}
	if w := m.Weight(1); w != 0 {
		t.Fatalf("dead weight = %v", w)
	}

	// Recovery: beats resume -> suspect immediately, alive only after the
	// dwell (no instant flap back to full weight).
	beat()
	if st := m.Status(1); st != Suspect {
		t.Fatalf("post-recovery status = %v, want suspect", st)
	}
	if w := m.Weight(1); w != 0.5 {
		t.Fatalf("suspect weight = %v, want 0.5", w)
	}
	for i := 0; i < 7; i++ {
		clk.advance(250 * time.Millisecond)
		beat()
	}
	// 1.75 s since suspect re-entry: still dwelling.
	if st := m.Status(1); st != Suspect {
		t.Fatalf("pre-dwell status = %v, want suspect", st)
	}
	clk.advance(250 * time.Millisecond)
	beat()
	if st := m.Status(1); st != Alive {
		t.Fatalf("post-dwell status = %v, want alive", st)
	}
	want := []string{"alive>suspect", "suspect>dead", "dead>suspect", "suspect>alive"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// TestFlappingNodeNeverDies is the tentpole property: a node alternating
// 1 s up / 1 s down oscillates between alive and suspect but never sheds
// its full weight — the binary prober would zero it every down phase.
func TestFlappingNodeNeverDies(t *testing.T) {
	clk := &simClock{}
	m := newTestMembership(t, clk, -1)
	deaths := 0
	m.cfg.OnChange = func(node int, from, to Status) {
		if to == Dead {
			deaths++
		}
	}
	seq := uint64(0)
	// 2 s of steady cadence to calibrate, then 20 s of 1 s up / 1 s down.
	for tick := 0; tick < 88; tick++ {
		phase := clk.now.Sub(time.Time{})
		up := phase < 2*time.Second || (phase/time.Second)%2 == 0
		if up {
			seq++
			m.Heartbeat(1, seq)
		}
		m.Status(1) // evaluate every probe tick, like the live readiness hook
		clk.advance(250 * time.Millisecond)
	}
	if deaths != 0 {
		t.Fatalf("flapping node declared dead %d times, want 0", deaths)
	}
	if w := m.Weight(1); w == 0 {
		t.Fatal("flapping node at zero weight")
	}
}

// TestIndirectHeartbeat: a sequence advance relayed through a third party's
// digest is proof of life — the asymmetric-partition property.
func TestIndirectHeartbeat(t *testing.T) {
	clk := &simClock{}
	b := newTestMembership(t, clk, 1) // B cannot reach A (node 0) directly
	seqA := uint64(0)
	for i := 0; i < 40; i++ {
		seqA++
		// C's digest relays A's rising sequence; B merges it.
		b.Merge(2, []Entry{{Node: 0, Seq: seqA, Status: uint8(Alive)}, {Node: 2, Seq: uint64(i + 1), Status: uint8(Alive)}})
		clk.advance(250 * time.Millisecond)
	}
	if st := b.Status(0); st != Alive {
		t.Fatalf("indirectly heartbeated node status = %v, want alive", st)
	}
	if got := b.Seq(0); got != seqA {
		t.Fatalf("merged seq = %d, want %d", got, seqA)
	}
	// Stale entries never regress knowledge.
	b.Merge(2, []Entry{{Node: 0, Seq: 3, Status: uint8(Alive)}})
	if got := b.Seq(0); got != seqA {
		t.Fatalf("stale merge regressed seq to %d", got)
	}
}

// TestRestartReset: a node's own digest reporting a lower sequence is a
// rebirth — the detector forgets the old life instead of ignoring the node.
func TestRestartReset(t *testing.T) {
	clk := &simClock{}
	m := newTestMembership(t, clk, -1)
	m.Merge(1, []Entry{{Node: 1, Seq: 500, Status: uint8(Alive)}})
	clk.advance(250 * time.Millisecond)
	// Restarted process begins at 1: a third party's stale relay must NOT
	// reset (it is not authoritative)...
	m.Merge(2, []Entry{{Node: 1, Seq: 1, Status: uint8(Alive)}})
	if got := m.Seq(1); got != 500 {
		t.Fatalf("third-party stale entry reset seq to %d", got)
	}
	// ...but the node's own self-report does.
	m.Merge(1, []Entry{{Node: 1, Seq: 1, Status: uint8(Alive)}})
	if got := m.Seq(1); got != 1 {
		t.Fatalf("self-reported rebirth ignored: seq = %d, want 1", got)
	}
	if st := m.Status(1); st != Alive {
		t.Fatalf("reborn node status = %v, want alive", st)
	}
}

// TestBeatAndDigest: Beat advances the self sequence, Digest carries it plus
// every heard node in node order, and observers emit no self entry.
func TestBeatAndDigest(t *testing.T) {
	clk := &simClock{}
	m := newTestMembership(t, clk, 0)
	if m.Beat() != 1 || m.Beat() != 2 {
		t.Fatal("Beat did not advance monotonically")
	}
	m.Heartbeat(2, 7)
	d := m.Digest(nil)
	if len(d) != 2 {
		t.Fatalf("digest entries = %d, want 2 (self + node 2)", len(d))
	}
	if d[0].Node != 0 || d[0].Seq != 2 {
		t.Fatalf("self entry = %+v", d[0])
	}
	if d[1].Node != 2 || d[1].Seq != 7 {
		t.Fatalf("heard entry = %+v", d[1])
	}

	obs := newTestMembership(t, clk, -1)
	if obs.Beat() != 0 {
		t.Fatal("observer Beat returned nonzero")
	}
	obs.Merge(0, d)
	od := obs.Digest(nil)
	if len(od) != 2 {
		t.Fatalf("observer digest entries = %d, want 2", len(od))
	}
}

// TestDigestRoundTrip: encode/decode is exact, including the observer
// sender and every status value.
func TestDigestRoundTrip(t *testing.T) {
	entries := []Entry{
		{Node: 0, Seq: 1, Status: uint8(Alive)},
		{Node: 1, Seq: 1<<63 + 12345, Status: uint8(Suspect)},
		{Node: 65534, Seq: 42, Status: uint8(Dead)},
	}
	for _, sender := range []int{-1, 0, 2} {
		buf := AppendDigest(nil, sender, entries)
		gotSender, got, err := DecodeDigest(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotSender != sender {
			t.Fatalf("sender = %d, want %d", gotSender, sender)
		}
		if len(got) != len(entries) {
			t.Fatalf("entries = %d, want %d", len(got), len(entries))
		}
		for i := range entries {
			if got[i] != entries[i] {
				t.Fatalf("entry %d = %+v, want %+v", i, got[i], entries[i])
			}
		}
	}
	// Empty digest round-trips too.
	if _, got, err := DecodeDigest(AppendDigest(nil, 1, nil), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty digest: %v, %d entries", err, len(got))
	}
}

// TestDigestDecodeErrors: every corruption class produces its typed error.
func TestDigestDecodeErrors(t *testing.T) {
	good := AppendDigest(nil, 0, []Entry{{Node: 1, Seq: 9, Status: uint8(Alive)}})
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrDigestLength},
		{"bad magic", []byte{'X', 1, 0, 0, 0, 0}, ErrDigestMagic},
		{"bad version", []byte{'G', 9, 0, 0, 0, 0}, ErrDigestVersion},
		{"truncated entry", good[:len(good)-3], ErrDigestLength},
		{"trailing bytes", append(append([]byte{}, good...), 0xAA), ErrDigestLength},
		{"count overflow", []byte{'G', 1, 0, 0, 0xFF, 0xFF}, ErrDigestLength},
		{"bad status", func() []byte {
			b := append([]byte{}, good...)
			b[len(b)-1] = 99
			return b
		}(), ErrDigestStatus},
	}
	for _, tc := range cases {
		if _, _, err := DecodeDigest(tc.data, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestEncodeDecodeAllocFree: with warm buffers, the digest hot path does not
// allocate (the bench arm's 0-allocs claim, asserted in the test suite).
func TestEncodeDecodeAllocFree(t *testing.T) {
	entries := []Entry{{0, 100, 0}, {1, 200, 1}, {2, 300, 0}}
	buf := make([]byte, 0, 256)
	dst := make([]Entry, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendDigest(buf[:0], 0, entries)
		_, dst, _ = DecodeDigest(buf, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("digest encode+decode allocates %.1f/op, want 0", allocs)
	}
}

// TestDeterminism: two memberships fed the same scripted schedule report
// identical phi, status, and digests.
func TestDeterminism(t *testing.T) {
	run := func() ([]Entry, float64, Status) {
		clk := &simClock{}
		m := newTestMembership(t, clk, 0)
		seq := uint64(0)
		for i := 0; i < 50; i++ {
			if i%7 != 6 {
				seq++
				m.Heartbeat(1, seq)
			}
			m.Merge(2, []Entry{{Node: 2, Seq: uint64(i/2 + 1), Status: uint8(Alive)}})
			m.Status(1)
			m.Status(2)
			clk.advance(250 * time.Millisecond)
		}
		return m.Digest(nil), m.Phi(1), m.Status(1)
	}
	d1, p1, s1 := run()
	d2, p2, s2 := run()
	if p1 != p2 || s1 != s2 || len(d1) != len(d2) {
		t.Fatalf("runs disagree: phi %v/%v status %v/%v", p1, p2, s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("digest entry %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

// FuzzDecodeDigest: arbitrary bytes must produce typed errors or valid
// entries, never a panic, and valid decodes must re-encode to the input.
func FuzzDecodeDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendDigest(nil, 2, []Entry{{Node: 1, Seq: 77, Status: 1}}))
	f.Add(AppendDigest(nil, -1, []Entry{{Node: 0, Seq: 1, Status: 0}, {Node: 9, Seq: 2, Status: 2}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		sender, entries, err := DecodeDigest(data, nil)
		if err != nil {
			return
		}
		back := AppendDigest(nil, sender, entries)
		if len(back) != len(data) {
			t.Fatalf("re-encode length %d, want %d", len(back), len(data))
		}
		for i := range back {
			if back[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}

// benchEntries is a 16-node digest with live sequences: the size the three
// benchmarks below price, since one digest rides every peer probe and
// digest-carrying /readyz answer.
func benchEntries() []Entry {
	entries := make([]Entry, 16)
	for i := range entries {
		entries[i] = Entry{Node: uint16(i), Seq: uint64(1000 + i), Status: uint8(Alive)}
	}
	return entries
}

func BenchmarkDigestAppend(b *testing.B) {
	entries := benchEntries()
	buf := AppendDigest(nil, 0, entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendDigest(buf[:0], 0, entries)
	}
}

func BenchmarkDigestDecode(b *testing.B) {
	entries := benchEntries()
	wire := AppendDigest(nil, 0, entries)
	dst := make([]Entry, 0, len(entries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeDigest(wire, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigestMerge folds a decoded digest into a membership: the detector
// bookkeeping per probe (sequence advance + phi sample push per node).
func BenchmarkDigestMerge(b *testing.B) {
	entries := benchEntries()
	clk := &simClock{now: time.Unix(0, 0)}
	memb, err := New(Config{Nodes: len(entries), Self: -1, Clock: clk.clock()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range entries {
			entries[j].Seq++
		}
		clk.advance(250 * time.Millisecond)
		memb.Merge(0, entries)
	}
}
