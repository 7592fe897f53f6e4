package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// The string-keyed filter below is the oracle the uint64 path is checked
// against: FNV-1a from hash/fnv over the key bytes, the probe rule spelled
// out once more. The cache hashed each id's 8 little-endian bytes through it
// before the allocation-free path existed, so agreeing with it on those
// bytes is what keeps every probe position — and every checkpointed filter
// image — where it was.

// hash2 derives the two hashes of key: FNV-1a over its bytes, then the same
// state continued over four more bytes, forced odd.
func hash2(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	h.Write([]byte{0x9e, 0x37, 0x79, 0xb9})
	return h1, h.Sum64() | 1
}

// le8 is the string of the 8 little-endian bytes of id.
func le8(id uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	return string(b[:])
}

// addString inserts key into f the string way.
func addString(f *Filter, key string) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.count++
}

// containsString tests key in f the string way.
func containsString(f *Filter, key string) bool {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// testAndAddString is the string path's TestAndAdd.
func testAndAddString(f *Filter, key string) bool {
	present := containsString(f, key)
	addString(f, key)
	return present
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.TestAndAddU64(i*7919, false)
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.ContainsU64(i * 7919) {
			t.Fatalf("false negative for %d", i*7919)
		}
	}
}

func TestFilterNoFalseNegativesProperty(t *testing.T) {
	f := New(4096, 0.01)
	check := func(id uint64) bool {
		f.TestAndAddU64(id, false)
		return f.ContainsU64(id)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	f := New(10000, 0.01)
	for i := uint64(0); i < 10000; i++ {
		f.TestAndAddU64(i, false)
	}
	fp := 0
	const probes = 10000
	for i := uint64(0); i < probes; i++ {
		if f.ContainsU64(1<<40 + i) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.4f exceeds 5%%", rate)
	}
}

// TestTestAndAdd: the first call reports absent and the second present, a
// known call reports present without touching a bit, and every call counts.
func TestTestAndAdd(t *testing.T) {
	f := New(100, 0.01)
	if f.TestAndAddU64(7, false) {
		t.Fatal("first TestAndAddU64 should report absent")
	}
	if !f.TestAndAddU64(7, false) {
		t.Fatal("second TestAndAddU64 should report present")
	}
	before := f.State()
	if !f.TestAndAddU64(7, true) {
		t.Fatal("a known id must report present")
	}
	after := f.State()
	if string(after.Bits) != string(before.Bits) || after.Count != before.Count+1 {
		t.Fatalf("known call: bits changed %v, count %d → %d; want bits unchanged, count +1",
			string(after.Bits) != string(before.Bits), before.Count, after.Count)
	}
	if f.count != 3 {
		t.Fatalf("count = %d, want 3", f.count)
	}
}

// TestKnownMatchesProbe: answering a known id without probing leaves the
// filter byte for byte where probing would have, which is what lets the
// cache skip the probes of an id its record says already went through.
func TestKnownMatchesProbe(t *testing.T) {
	probe, skip := New(256, 0.01), New(256, 0.01)
	known := make(map[uint64]bool)
	for i := uint64(0); i < 2000; i++ {
		id := (i * 0x9e3779b97f4a7c15) % 500
		got, want := skip.TestAndAddU64(id, known[id]), probe.TestAndAddU64(id, false)
		if got != want {
			t.Fatalf("call %d id %d: skip answered %v, probe %v", i, id, got, want)
		}
		known[id] = true
	}
	a, b := skip.State(), probe.State()
	if a.Count != b.Count || string(a.Bits) != string(b.Bits) {
		t.Fatal("skipping known ids left a different filter image")
	}
}

func TestNewClampsArguments(t *testing.T) {
	f := New(-5, 2.0)
	f.TestAndAddU64(42, false)
	if !f.ContainsU64(42) {
		t.Fatal("clamped filter must still work")
	}
	if f.m < 64 {
		t.Fatalf("m = %d, want >= 64", f.m)
	}
}

func BenchmarkFilterTestAndAdd(b *testing.B) {
	f := New(1<<20, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.TestAndAddU64(uint64(i%1024)*0x9e3779b97f4a7c15, false)
	}
}

func TestHash2U64MatchesStringHash(t *testing.T) {
	ids := []uint64{0, 1, 0xff, 1 << 32, 0xdeadbeefcafebabe, ^uint64(0)}
	for i := uint64(0); i < 1000; i++ {
		ids = append(ids, i*2654435761)
	}
	for _, id := range ids {
		wh1, wh2 := hash2(le8(id))
		gh1, gh2 := hash2U64(id)
		if gh1 != wh1 || gh2 != wh2 {
			t.Fatalf("hash2U64(%#x) = (%#x,%#x), want (%#x,%#x)", id, gh1, gh2, wh1, wh2)
		}
	}
}

// TestHash2U64Golden pins hash2U64, and the probe positions it gives in a
// filter sized for 4096 ids at 1% (m 39261, k 7), to values recorded before
// the string path moved into this file: the oracle and the code under test
// cannot drift together.
func TestHash2U64Golden(t *testing.T) {
	golden := []struct {
		id, h1, h2 uint64
		pos        [7]uint64
	}{
		{0x0, 0xa8c7f832281a39c5, 0xb6635966340c2909, [7]uint64{21745, 25918, 30091, 13754, 17927, 22100, 5763}},
		{0x1, 0x89cd31291d2aefa4, 0x950e9dc6e254d1cd, [7]uint64{18501, 30434, 21857, 33790, 25213, 37146, 9818}},
		{0xff, 0x9016b196e349a31a, 0x93a064aeeb0ce6a3, [7]uint64{82, 34416, 8979, 4052, 17876, 12949, 8022}},
		{0x100000000, 0x8cd4c29d1e47d34, 0x5112a1a903de015d, [7]uint64{8252, 16401, 24550, 32699, 22097, 30246, 38395}},
		{0xdeadbeefcafebabe, 0xbdf6b67f799bf80b, 0x7edeeef67fa3724f, [7]uint64{3133, 16201, 8759, 21827, 14385, 27453, 20011}},
		{0xffffffffffffffff, 0x8cf51a8bfca3883d, 0x5a3271ab6aef2c71, [7]uint64{15751, 831, 6421, 30762, 15842, 21432, 6512}},
		{0x75bcd15, 0xdf604ac5d726ce19, 0xdd663cb11aefceed, [7]uint64{14352, 36625, 19637, 2649, 24922, 7934, 30207}},
	}
	f := New(1<<12, 0.01)
	if f.m != 39261 || f.k != 7 {
		t.Fatalf("New(4096, 0.01) sized m=%d k=%d, want 39261 and 7", f.m, f.k)
	}
	for _, g := range golden {
		h1, h2 := hash2U64(g.id)
		if h1 != g.h1 || h2 != g.h2 {
			t.Fatalf("hash2U64(%#x) = (%#x, %#x), want (%#x, %#x)", g.id, h1, h2, g.h1, g.h2)
		}
		for i, want := range g.pos {
			if got := (h1 + uint64(i)*h2) % f.m; got != want {
				t.Fatalf("id %#x probe %d at bit %d, want %d", g.id, i, got, want)
			}
		}
	}
}

func TestFilterU64MatchesString(t *testing.T) {
	fs := New(1<<12, 0.01)
	fu := New(1<<12, 0.01)
	for i := uint64(0); i < 500; i++ {
		id := i * 0x9e3779b97f4a7c15
		if got, want := fu.TestAndAddU64(id, false), testAndAddString(fs, le8(id)); got != want {
			t.Fatalf("TestAndAddU64(%#x) = %v, want %v", id, got, want)
		}
	}
	for i := uint64(0); i < 500; i++ {
		id := i * 0x9e3779b97f4a7c15
		if got, want := fu.ContainsU64(id), containsString(fs, le8(id)); got != want {
			t.Fatalf("ContainsU64(%#x) = %v, want %v", id, got, want)
		}
		if !fu.ContainsU64(id) {
			t.Fatalf("false negative for %#x", id)
		}
	}
	if a, b := fu.State(), fs.State(); a.Count != b.Count || string(a.Bits) != string(b.Bits) {
		t.Fatal("the uint64 and string paths left different filter images")
	}
}
