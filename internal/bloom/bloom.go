// Package bloom implements the probabilistic set membership filter used by
// the CDN cache substrate: a classic Bloom filter for the disk cache's
// "one-hit wonder" admission rule (admit only on the second request, §2.2 of
// the Darwin paper).
package bloom

import (
	"hash/fnv"
	"math"
)

// Filter is a standard Bloom filter with double hashing.
// The zero value is unusable; construct with New.
type Filter struct {
	bits  []uint64
	m     uint64 // number of bits
	k     int    // number of hash functions
	count uint64 // number of Add calls (approximate element count)
}

// New creates a Bloom filter sized for n expected elements at the given
// target false-positive probability (0 < fp < 1). Invalid arguments are
// clamped to safe minima.
func New(n int, fp float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// hash2 derives two independent 64-bit hashes of key using FNV-1a over the
// key bytes and a seeded variant; double hashing g_i = h1 + i*h2 gives the k
// probe positions (Kirsch–Mitzenmacher).
func hash2(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	h.Write([]byte{0x9e, 0x37, 0x79, 0xb9})
	h2 := h.Sum64() | 1 // force odd so probes cycle through all positions
	return h1, h2
}

// FNV-1a constants (hash/fnv), inlined for the allocation-free uint64 path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash2U64 is hash2 over the 8 little-endian bytes of id, computed inline so
// the cache's per-request probes allocate nothing. It is bit-identical to
// hash2(string(le8(id))), which the simulator hot path used to call — the
// probe positions, and therefore every recorded metric, are unchanged.
func hash2U64(id uint64) (uint64, uint64) {
	h := uint64(fnvOffset64)
	for i := 0; i < 64; i += 8 {
		h ^= (id >> i) & 0xff
		h *= fnvPrime64
	}
	h1 := h
	for _, b := range [4]uint64{0x9e, 0x37, 0x79, 0xb9} {
		h ^= b
		h *= fnvPrime64
	}
	return h1, h | 1
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.count++
}

// Contains reports whether key may have been added (false positives possible,
// false negatives impossible).
func (f *Filter) Contains(key string) bool {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// TestAndAdd reports whether key was (probably) present and inserts it.
func (f *Filter) TestAndAdd(key string) bool {
	present := f.Contains(key)
	f.Add(key)
	return present
}

// AddU64 inserts a uint64 key without allocating. Equivalent to Add on the
// key's 8 little-endian bytes.
func (f *Filter) AddU64(id uint64) {
	h1, h2 := hash2U64(id)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.count++
}

// ContainsU64 reports membership of a uint64 key without allocating.
func (f *Filter) ContainsU64(id uint64) bool {
	h1, h2 := hash2U64(id)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// TestAndAddU64 reports whether the uint64 key was (probably) present and
// inserts it, computing the probe positions once.
func (f *Filter) TestAndAddU64(id uint64) bool {
	h1, h2 := hash2U64(id)
	present := true
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		word, bit := pos/64, uint64(1)<<(pos%64)
		if f.bits[word]&bit == 0 {
			present = false
			f.bits[word] |= bit
		}
	}
	f.count++
	return present
}

// ApproxCount returns the number of Add calls made.
func (f *Filter) ApproxCount() uint64 { return f.count }

// Reset clears the filter in place.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.count = 0
}

// Bits returns the filter size in bits (for overhead accounting).
func (f *Filter) Bits() uint64 { return f.m }
