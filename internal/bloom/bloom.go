// Package bloom implements the probabilistic set membership filter used by
// the CDN cache substrate: a classic Bloom filter for the disk cache's
// "one-hit wonder" admission rule (admit only on the second request, §2.2 of
// the Darwin paper).
package bloom

import "math"

// Filter is a standard Bloom filter with double hashing over uint64 keys.
// No method clears a bit: once TestAndAddU64 has inserted an id, every
// later test of it answers true. The zero value is unusable; construct with
// New.
type Filter struct {
	bits  []uint64
	m     uint64 // number of bits
	k     int    // number of hash functions
	count uint64 // number of TestAndAddU64 calls (approximate element count)
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

// FNV-1a constants (hash/fnv), inlined for the allocation-free uint64 path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash2U64 derives two 64-bit hashes of id: FNV-1a over its 8 little-endian
// bytes, then the same state continued over four more bytes; double hashing
// g_i = h1 + i*h2 gives the k probe positions (Kirsch–Mitzenmacher). It is
// bit-identical to the string-keyed filter this package once had, applied
// to the id's 8 bytes: the probe positions, and with them every checkpointed
// filter image and recorded metric, are unchanged.
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
	return h1, h | 1 // h2 odd, so probes cycle through all positions
}

// ContainsU64 reports whether id may have been inserted (false positives
// possible, false negatives impossible).
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

// TestAndAddU64 reports whether id was (probably) present and inserts it,
// computing the probe positions once. known is the caller's word that id
// already went through TestAndAddU64 on this filter: since no bit is ever
// cleared, the probes would all find their bits set, so the call only counts
// itself and answers true — the filter's state is exactly what probing would
// have left.
func (f *Filter) TestAndAddU64(id uint64, known bool) bool {
	f.count++
	if known {
		return true
	}
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
	return present
}
