package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestFilterNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFilterNoFalseNegativesProperty(t *testing.T) {
	f := New(4096, 0.01)
	check := func(key string) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	f := New(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.Add(fmt.Sprintf("in-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.4f exceeds 5%%", rate)
	}
}

func TestTestAndAdd(t *testing.T) {
	f := New(100, 0.01)
	if f.TestAndAdd("a") {
		t.Fatal("first TestAndAdd should report absent")
	}
	if !f.TestAndAdd("a") {
		t.Fatal("second TestAndAdd should report present")
	}
	if f.ApproxCount() != 2 {
		t.Fatalf("ApproxCount = %d, want 2", f.ApproxCount())
	}
}

func TestFilterReset(t *testing.T) {
	f := New(100, 0.01)
	f.Add("x")
	f.Reset()
	if f.Contains("x") {
		t.Fatal("Reset did not clear membership")
	}
	if f.ApproxCount() != 0 {
		t.Fatal("Reset did not clear count")
	}
}

func TestNewClampsArguments(t *testing.T) {
	f := New(-5, 2.0)
	f.Add("k")
	if !f.Contains("k") {
		t.Fatal("clamped filter must still work")
	}
	if f.Bits() < 64 {
		t.Fatalf("Bits = %d, want >= 64", f.Bits())
	}
}

func BenchmarkFilterAdd(b *testing.B) {
	f := New(1<<20, 0.01)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(keys[i%len(keys)])
	}
}

// leKey is the 8-little-endian-byte string encoding the uint64 hot path
// replaced; the U64 methods must be bit-identical to the string methods on it.
func leKey(id uint64) string {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (8 * i))
	}
	return string(b[:])
}

func TestHash2U64MatchesStringHash(t *testing.T) {
	ids := []uint64{0, 1, 0xff, 1 << 32, 0xdeadbeefcafebabe, ^uint64(0)}
	for i := uint64(0); i < 1000; i++ {
		ids = append(ids, i*2654435761)
	}
	for _, id := range ids {
		wh1, wh2 := hash2(leKey(id))
		gh1, gh2 := hash2U64(id)
		if gh1 != wh1 || gh2 != wh2 {
			t.Fatalf("hash2U64(%#x) = (%#x,%#x), want (%#x,%#x)", id, gh1, gh2, wh1, wh2)
		}
	}
}

func TestFilterU64MatchesString(t *testing.T) {
	fs := New(1<<12, 0.01)
	fu := New(1<<12, 0.01)
	for i := uint64(0); i < 500; i++ {
		id := i * 0x9e3779b97f4a7c15
		if got, want := fu.TestAndAddU64(id), fs.TestAndAdd(leKey(id)); got != want {
			t.Fatalf("TestAndAddU64(%#x) = %v, want %v", id, got, want)
		}
	}
	for i := uint64(0); i < 500; i++ {
		id := i * 0x9e3779b97f4a7c15
		if got, want := fu.ContainsU64(id), fs.Contains(leKey(id)); got != want {
			t.Fatalf("ContainsU64(%#x) = %v, want %v", id, got, want)
		}
		if !fu.ContainsU64(id) {
			t.Fatalf("false negative for %#x", id)
		}
	}
	fu2 := New(1<<12, 0.01)
	for i := uint64(0); i < 500; i++ {
		fu2.AddU64(i)
		if !fu2.ContainsU64(i) {
			t.Fatalf("AddU64 then ContainsU64(%d) = false", i)
		}
	}
}
