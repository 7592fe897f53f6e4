package bloom

import (
	"encoding/binary"
	"testing"
)

// le8 is the string of the 8 little-endian bytes of id — the key the string
// API sees when the caller encodes a uint64 the way the simulator used to.
func le8(id uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	return string(b[:])
}

// FuzzHashIdentity checks the load-bearing claim in hash2U64's doc comment:
// the allocation-free uint64 path is bit-identical to hash2 over the 8
// little-endian bytes of the id. If this identity breaks, every Bloom probe
// position shifts and recorded simulator metrics silently change.
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

// FuzzFilterU64StringIdentity checks that the string and uint64 Filter APIs
// are interchangeable views of the same probe positions: an id added via one
// path must be visible via the other, and TestAndAdd must agree with a
// preceding Contains.
func FuzzFilterU64StringIdentity(f *testing.F) {
	f.Add(uint64(0), uint64(7))
	f.Add(uint64(42), uint64(42))
	f.Add(^uint64(0), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		fl := New(128, 0.01)
		fl.AddU64(a)
		if !fl.Contains(le8(a)) {
			t.Fatalf("AddU64(%#x) not visible via Contains(le8)", a)
		}
		if !fl.ContainsU64(a) {
			t.Fatalf("AddU64(%#x) not visible via ContainsU64", a)
		}
		fl.Add(le8(b))
		if !fl.ContainsU64(b) {
			t.Fatalf("Add(le8(%#x)) not visible via ContainsU64", b)
		}
		// TestAndAdd on an id that is resident via either path must report it.
		if !fl.TestAndAddU64(a) || !fl.TestAndAdd(le8(b)) {
			t.Fatalf("TestAndAdd disagrees with residency for %#x / %#x", a, b)
		}
	})
}
