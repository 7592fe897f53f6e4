package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// The built-in map is idTable's oracle: every test below runs the same
// operations on both and requires the same answers. The value the map holds
// is a record's lastSeen.

// tableOp is one step of a differential run.
type tableOp struct {
	kind uint8 // parity: 0 get, 1 upsert (+ write)
	id   uint64
	val  int64
}

// TestIDSlotSize pins a slot — a record — at 40 bytes: the table's key and
// occupancy and the filter mark live in what would otherwise be padding, so
// adding the mark cost no memory and no cache-line share.
func TestIDSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(objRec{}); got != 40 {
		t.Fatalf("objRec is %d bytes, want 40", got)
	}
}

// runTableOps runs ops against an idTable and a map and fails on the first
// disagreement; every checkEvery ops (and at the end) it also compares the
// full contents and the table's structural invariants.
func runTableOps(t testing.TB, ops []tableOp, checkEvery int) *idTable {
	t.Helper()
	var tab idTable
	ref := make(map[uint64]int64)
	for n, op := range ops {
		if op.kind%2 == 0 {
			got := tab.get(op.id)
			want, ok := ref[op.id]
			if (got != nil) != ok || (ok && got.lastSeen != want) {
				t.Fatalf("op %d: get(%d) = %+v, map has (%d, %v)", n, op.id, got, want, ok)
			}
		} else {
			v, existed := tab.upsert(op.id)
			want, ok := ref[op.id]
			dirty := !existed && *v != (objRec{key: op.id, used: true}) // a new record is zero but for the table's fields
			if existed != ok || v.lastSeen != want || dirty {
				t.Fatalf("op %d: upsert(%d) = (%+v, %v), map has (%d, %v)", n, op.id, *v, existed, want, ok)
			}
			v.lastSeen = op.val
			ref[op.id] = op.val
		}
		if tab.len() != len(ref) {
			t.Fatalf("op %d: len %d, map %d", n, tab.len(), len(ref))
		}
		if n%checkEvery == 0 {
			compareTable(t, &tab, ref)
		}
	}
	compareTable(t, &tab, ref)
	return &tab
}

// compareTable checks contents against the oracle and the invariants lookups
// rely on: power-of-two size, load ≤ 3/4, and no empty slot between an
// entry's home and where it sits (what a lookup walks to find it).
func compareTable(t testing.TB, tab *idTable, ref map[uint64]int64) {
	t.Helper()
	seen := 0
	tab.each(func(id uint64, v *objRec) {
		seen++
		if want, ok := ref[id]; !ok || want != v.lastSeen || v.key != id {
			t.Fatalf("table holds (%d, %+v), map has (%d, %v)", id, *v, want, ok)
		}
	})
	if seen != len(ref) || tab.len() != len(ref) {
		t.Fatalf("table walks %d entries, len %d, map %d", seen, tab.len(), len(ref))
	}
	for id, want := range ref {
		if got := tab.get(id); got == nil || got.lastSeen != want {
			t.Fatalf("get(%d) = %+v, map has %d", id, got, want)
		}
	}
	size := len(tab.slots)
	if size&(size-1) != 0 || tab.len() > size/4*3 {
		t.Fatalf("%d entries in %d slots: not a power of two at ≤ 3/4 load", tab.len(), size)
	}
	mask := uint64(size - 1)
	for i := range tab.slots {
		if !tab.slots[i].used {
			continue
		}
		for j := tab.home(tab.slots[i].key); j != uint64(i); j = (j + 1) & mask {
			if !tab.slots[j].used {
				t.Fatalf("id %d sits at slot %d but slot %d on its probe path is empty", tab.slots[i].key, i, j)
			}
		}
	}
}

// longestProbe returns the most slots any resident id's lookup inspects.
func longestProbe(tab *idTable) int {
	mask := uint64(len(tab.slots) - 1)
	worst := 0
	for i := range tab.slots {
		if tab.slots[i].used {
			if d := int((uint64(i)-tab.home(tab.slots[i].key))&mask) + 1; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// endOfSliceIDs returns n distinct ids whose home, in a table of the given
// size, is one of the last two slots — so their probe runs wrap around the
// slice end, and deleting among them shifts entries back across it.
func endOfSliceIDs(size, n int) []uint64 {
	tab := idTable{shift: uint(64 - bits.TrailingZeros(uint(size)))}
	var ids []uint64
	for id := uint64(1); len(ids) < n; id++ {
		if h := tab.home(id); h >= uint64(size-2) {
			ids = append(ids, id)
		}
	}
	return ids
}

// oneShardIDs returns n ids that Sharded.route would all send to shard 0 of
// eight: they agree on Mix64's low three bits, which is why the table must
// not take its slot from them.
func oneShardIDs(n int) []uint64 {
	ids := make([]uint64, 0, n)
	for id := uint64(0); len(ids) < n; id++ {
		if Mix64(id)&7 == 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// testSeeds stand in for a seed the client does not know; 0 is the one it
// does (the unseeded hash). The cases whose ids are chosen by where they hash
// pin one, so their figures are the same on every run.
var testSeeds = []uint64{1, 1 << 63, 0x9E3779B97F4A7C15, 0xDEADBEEFCAFEF00D}

// pinIDSeed fixes the process's table seed for the rest of a test.
func pinIDSeed(tb testing.TB, seed uint64) {
	old := idSeed
	idSeed = seed
	tb.Cleanup(func() { idSeed = old })
}

// unmix64 inverts Mix64 (a xor-shift by 33 is its own inverse; the
// multipliers are odd, so Newton's iteration finds their inverses mod 2^64).
func unmix64(x uint64) uint64 {
	inv := func(a uint64) uint64 {
		r := a // a·a ≡ 1 mod 8: three bits right, doubled by every step
		for i := 0; i < 5; i++ {
			r *= 2 - a*r
		}
		return r
	}
	x ^= x >> 33
	x *= inv(0xc4ceb9fe1a85ec53)
	x ^= x >> 33
	x *= inv(0xff51afd7ed558ccd)
	x ^= x >> 33
	return x
}

// floodIDs returns n ids a client can compute from the source alone: their
// unseeded hashes agree on the top 24 bits, so with idSeed 0 they share one
// home slot in any table of up to 2^24 slots.
func floodIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for k := range ids {
		ids[k] = unmix64(0xC0FFEE<<40 | uint64(k))
	}
	return ids
}

func TestIDTableMatchesMap(t *testing.T) {
	t.Run("zero-value", func(t *testing.T) {
		var tab idTable
		if tab.get(0) != nil || tab.len() != 0 {
			t.Fatal("empty table is not empty")
		}
		tab.each(func(uint64, *objRec) { t.Fatal("empty table has an entry") })
	})

	t.Run("extreme-keys", func(t *testing.T) {
		// 0 and MaxUint64 are legal ids: occupancy must not be encoded in
		// the key. Mix them with neighbours through growth.
		keys := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1}
		var ops []tableOp
		for round := int64(0); round < 4; round++ {
			for _, k := range keys {
				ops = append(ops, tableOp{1, k, round + 1}, tableOp{0, k, 0})
			}
			for i := uint64(0); i < 40; i++ { // force two doublings around them
				ops = append(ops, tableOp{1, 1000 + i, int64(i)})
			}
			for _, k := range keys {
				ops = append(ops, tableOp{0, k, 0})
			}
		}
		runTableOps(t, ops, 1)
	})

	t.Run("wrap-around", func(t *testing.T) {
		// Five ids homed on the last two of eight slots: the run occupies
		// slots 6,7,0,1,2. Look each up, update each in place, and look up a
		// sixth id homed there too, absent — its probe walks the whole run
		// across the slice end to the empty slot 3.
		ids := endOfSliceIDs(8, 6)
		var ops []tableOp
		for i, id := range ids[:5] {
			ops = append(ops, tableOp{1, id, int64(i + 1)})
		}
		for _, i := range []int{0, 2, 4, 1, 3} {
			for _, id := range ids {
				ops = append(ops, tableOp{0, id, 0})
			}
			ops = append(ops, tableOp{1, ids[i], 99})
		}
		tab := runTableOps(t, ops, 1)
		if len(tab.slots) != 8 {
			t.Fatalf("table grew to %d slots; the case no longer wraps", len(tab.slots))
		}
	})

	t.Run("sequential", func(t *testing.T) {
		// Insert the even ids of 0..n-1, look every id up, insert the odd
		// ones, update every id.
		const n = 3000
		var ops []tableOp
		for i := uint64(0); i < n; i += 2 {
			ops = append(ops, tableOp{1, i, int64(i)})
		}
		for i := uint64(0); i < n; i++ {
			ops = append(ops, tableOp{0, i, 0})
		}
		for i := uint64(1); i < n; i += 2 {
			ops = append(ops, tableOp{1, i, int64(i)})
		}
		for i := uint64(0); i < n; i++ {
			ops = append(ops, tableOp{0, i, 0}, tableOp{1, i, int64(2 * i)})
		}
		runTableOps(t, ops, 500)
	})

	// Random mixes over a key space small enough that gets hit and upserts
	// find existing keys, with growth happening mid-sequence (the table
	// starts empty and ends several doublings on).
	for _, tc := range []struct {
		name string
		keys func(r *rand.Rand) uint64
	}{
		{"random-dense", func(r *rand.Rand) uint64 { return uint64(r.Intn(700)) }},
		{"random-sparse", func(r *rand.Rand) uint64 { return r.Uint64() >> uint(r.Intn(64)) }},
		{"random-one-shard", func() func(r *rand.Rand) uint64 {
			ids := oneShardIDs(900)
			return func(r *rand.Rand) uint64 { return ids[r.Intn(len(ids))] }
		}()},
		{"random-stride", func(r *rand.Rand) uint64 { return uint64(r.Intn(600)) << 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				ops := make([]tableOp, 20_000)
				for i := range ops {
					ops[i] = tableOp{uint8(r.Intn(2)), tc.keys(r), r.Int63()}
				}
				runTableOps(t, ops, 997)
			}
		})
	}
}

// TestIDTableProbeBound states how far a lookup can walk on the two id
// patterns the engine actually produces, at the fullest the table gets (one
// insert short of doubling, load 3/4): ids handed out sequentially, and the
// subset of those that one shard of eight sees. Behind a seeded full mixer
// both are random sets, whose longest linear-probe run at that load grows
// with log n (112–169 slots measured here for one unlucky id of 196608; the
// mean successful probe is 2.5 slots).
func TestIDTableProbeBound(t *testing.T) {
	const n = 3 << 16 // 196608 = 3/4 of 2^18
	const bound = 256
	for _, tc := range []struct {
		name string
		ids  func() []uint64
	}{
		{"sequential", func() []uint64 {
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = uint64(i)
			}
			return ids
		}},
		{"one-shard-of-eight", func() []uint64 { return oneShardIDs(n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := tc.ids()
			for _, seed := range append([]uint64{0}, testSeeds...) {
				pinIDSeed(t, seed)
				var tab idTable
				for _, id := range ids {
					tab.upsert(id)
				}
				if len(tab.slots) != 1<<18 {
					t.Fatalf("%d entries sit in %d slots, want 2^18 (load 3/4)", tab.len(), len(tab.slots))
				}
				if got := longestProbe(&tab); got > bound {
					t.Fatalf("seed %#x: longest probe %d slots, bound %d", seed, got, bound)
				} else {
					t.Logf("seed %#x: longest probe %d slots (bound %d)", seed, got, bound)
				}
			}
		})
	}
}

// TestIDTableHashFlood is the attack the seed exists for. Object ids come off
// the request URL, so a client who reads this package can invert the mixer
// and send ids that all hash to one home slot: against an unseeded table the
// k-th of them probes k slots (4096 ids, 8 million slot visits, and as many
// again at every doubling, all under the shard lock). Against a seed the
// client does not know, the same ids are an ordinary random set.
func TestIDTableHashFlood(t *testing.T) {
	const n = 4096 // fills 8192 slots to load 1/2
	ids := floodIDs(n)
	for _, id := range ids[:8] {
		if got := Mix64(id) >> 40; got != 0xC0FFEE {
			t.Fatalf("unmix64 does not invert Mix64: id %#x hashes to top bits %#x", id, got)
		}
	}
	fill := func() int {
		var tab idTable
		for _, id := range ids {
			tab.upsert(id)
		}
		return longestProbe(&tab)
	}
	// At load 1/2 a random set's longest probe is a dozen slots or two; the
	// chance of one past 128 is below 1e-6, so the process's own drawn seed
	// can be held to the bound too.
	const bound = 128
	if idSeed == 0 || newIDSeed() == newIDSeed() {
		t.Fatalf("process seed %#x: the seed is not being drawn", idSeed)
	}
	if got := fill(); got > bound {
		t.Fatalf("process seed: longest probe %d slots, bound %d", got, bound)
	}
	for _, seed := range testSeeds {
		pinIDSeed(t, seed)
		if got := fill(); got > bound {
			t.Fatalf("seed %#x: longest probe %d slots, bound %d", seed, got, bound)
		} else {
			t.Logf("seed %#x: longest probe %d slots (bound %d)", seed, got, bound)
		}
	}
	pinIDSeed(t, 0)
	if got := fill(); got != n {
		t.Fatalf("unseeded: longest probe %d; the ids no longer pile onto one slot (want %d), so this test attacks nothing", got, n)
	}
}

// FuzzIDTable decodes an operation sequence from bytes — one byte of kind,
// one of key selector, per op — and runs it against the map oracle. The key
// alphabet is small and adversarial on purpose: ids that collide on one home
// slot of a small table, ids that wrap the slice end, and the extreme keys.
// The seed is pinned so that the alphabet, and with it what a corpus file
// means, is the same in every process. Beside the f.Add seeds below, the
// inputs a fuzzing session found are in testdata/fuzz/FuzzIDTable.
func FuzzIDTable(f *testing.F) {
	pinIDSeed(f, 0)
	alphabet := append(endOfSliceIDs(8, 6), endOfSliceIDs(16, 6)...)
	alphabet = append(alphabet, 0, math.MaxUint64, 1, 2, 3, 1<<40, 2<<40, 3<<40)
	alphabet = append(alphabet, oneShardIDs(12)...)
	// The corpus: (kind, key selector) pairs; a kind byte's parity picks
	// 0 get, 1 upsert.
	// A run that wraps the end of eight slots, looked up from head to tail,
	// then an absent key homed in it.
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 0, 0, 0, 1, 0, 4, 0, 2, 0, 3, 0, 5, 1, 0, 0, 0})
	// The extreme keys, in and updated.
	f.Add([]byte{1, 12, 1, 13, 0, 12, 0, 13, 1, 12, 0, 13, 0, 12, 1, 13, 0, 13, 1, 12})
	// Three doublings (24 keys), then all looked up.
	grow := []byte{}
	for k := byte(8); k < 32; k++ {
		grow = append(grow, 1, k)
	}
	for k := byte(8); k < 32; k++ {
		grow = append(grow, 0, k)
	}
	f.Add(grow)
	// Lookups of absent keys inside someone else's run, then of the keys.
	f.Add([]byte{1, 0, 1, 1, 0, 2, 0, 5, 0, 0, 0, 1, 0, 3, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]tableOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			ops = append(ops, tableOp{data[i], alphabet[int(data[i+1])%len(alphabet)], int64(i) + 1})
		}
		runTableOps(t, ops, 1)
	})
}

// BenchmarkIDTable prices the three per-request operations at a small and a
// large resident set, with the built-in map as the reference arm (here only:
// no non-test code keeps a map beside the table). Keys are one shard's view
// of a sequential id space, as in the deployed engine.
func BenchmarkIDTable(b *testing.B) {
	for _, n := range []int{1_000, 1_000_000} {
		ids := oneShardIDs(2 * n)
		resident, absent := ids[:n], ids[n:]
		r := rand.New(rand.NewSource(1))
		r.Shuffle(len(resident), func(i, j int) { resident[i], resident[j] = resident[j], resident[i] })

		var tab idTable
		ref := make(map[uint64]int)
		for i, id := range resident {
			v, _ := tab.upsert(id)
			v.count = i
			ref[id] = i
		}
		var sink int
		arm := func(name string, table, builtin func(i int)) {
			b.Run(fmt.Sprintf("%s/n=%d/table", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					table(i % n)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/map", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					builtin(i % n)
				}
			})
		}
		arm("hit",
			func(i int) { sink += tab.get(resident[i]).count },
			func(i int) { sink += ref[resident[i]] })
		arm("miss",
			func(i int) {
				if tab.get(absent[i]) != nil {
					b.Fatal("absent id found")
				}
			},
			func(i int) {
				if _, ok := ref[absent[i]]; ok {
					b.Fatal("absent id found")
				}
			})
		arm("upsert-existing",
			func(i int) { v, _ := tab.upsert(resident[i]); v.count++ },
			func(i int) { ref[resident[i]]++ })
		_ = sink
	}
}

// BenchmarkIDTableGrow fills a record table to a million entries and
// reports, beside the amortised ns per insert, the largest single doubling of
// a fill: its median over the benchmark's fills, and the worst seen. Growth
// runs inside whatever critical section the insert is in (the shard lock, for
// the engine's tables), so that figure is a pause every request to the shard
// waits out; DESIGN.md quotes it. The worst case is the collector's doing as
// much as the table's: the 64 MiB array is one allocation, and a goroutine
// that allocates that much mid-cycle is made to assist the marker.
func BenchmarkIDTableGrow(b *testing.B) {
	ids := oneShardIDs(1_000_000)
	largest := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tab idTable
		var worst time.Duration
		for _, id := range ids {
			if tab.len() < len(tab.slots)/4*3 { // not a doubling insert: leave the clock alone
				tab.upsert(id)
				continue
			}
			start := time.Now()
			tab.upsert(id)
			if d := time.Since(start); d > worst {
				worst = d
			}
		}
		largest = append(largest, worst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/insert")
	sort.Slice(largest, func(i, j int) bool { return largest[i] < largest[j] })
	b.ReportMetric(float64(largest[len(largest)/2].Microseconds())/1e3, "ms-largest-doubling(median)")
	b.ReportMetric(float64(largest[len(largest)-1].Microseconds())/1e3, "ms-largest-doubling(worst)")
}
