package bloom

import "testing"

// FuzzHashIdentity checks the load-bearing claim in hash2U64's doc comment:
// the allocation-free uint64 path is bit-identical to the string oracle's
// hash2 over the 8 little-endian bytes of the id. If this identity breaks,
// every Bloom probe position shifts and recorded simulator metrics silently
// change.
func FuzzHashIdentity(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(^uint64(0))
	f.Add(uint64(0xdeadbeefcafebabe))
	f.Fuzz(func(t *testing.T, id uint64) {
		sh1, sh2 := hash2(le8(id))
		uh1, uh2 := hash2U64(id)
		if sh1 != uh1 || sh2 != uh2 {
			t.Fatalf("hash2U64(%#x) = (%#x, %#x), hash2(le8) = (%#x, %#x)", id, uh1, uh2, sh1, sh2)
		}
	})
}

// FuzzFilterMatchesStringOracle checks that the filter and the string
// oracle are two views of the same probe positions: an id inserted through
// either is visible through the other, and TestAndAddU64 — probing, or
// answering for a known id without probing — agrees with the oracle's
// TestAndAdd.
func FuzzFilterMatchesStringOracle(f *testing.F) {
	f.Add(uint64(0), uint64(7))
	f.Add(uint64(42), uint64(42))
	f.Add(^uint64(0), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		fl := New(128, 0.01)
		fl.TestAndAddU64(a, false)
		if !containsString(fl, le8(a)) {
			t.Fatalf("TestAndAddU64(%#x) not visible via the oracle", a)
		}
		if !fl.ContainsU64(a) {
			t.Fatalf("TestAndAddU64(%#x) not visible via ContainsU64", a)
		}
		addString(fl, le8(b))
		if !fl.ContainsU64(b) {
			t.Fatalf("oracle insert of %#x not visible via ContainsU64", b)
		}
		if !fl.TestAndAddU64(a, true) || !fl.TestAndAddU64(b, false) || !testAndAddString(fl, le8(a)) {
			t.Fatalf("TestAndAdd disagrees with residency for %#x / %#x", a, b)
		}
	})
}
