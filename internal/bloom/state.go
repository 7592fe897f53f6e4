package bloom

import (
	"encoding/binary"
	"fmt"
)

// FilterState is the serialisable form of a Filter. Bits is the little-endian
// byte image of the bit array ([]byte so JSON encodes it as base64, an ~8x
// saving over a number array for the megabit filters the DC uses).
type FilterState struct {
	M     uint64 `json:"m"`
	K     int    `json:"k"`
	Count uint64 `json:"count"`
	Bits  []byte `json:"bits"`
}

// State snapshots the filter for checkpointing.
func (f *Filter) State() FilterState {
	bits := make([]byte, len(f.bits)*8)
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(bits[i*8:], w)
	}
	return FilterState{M: f.m, K: f.k, Count: f.count, Bits: bits}
}

// FilterFromState rebuilds a Filter from a snapshot, validating every
// structural invariant New establishes so a corrupt snapshot can never
// produce a filter that indexes out of bounds.
func FilterFromState(st FilterState) (*Filter, error) {
	if st.M < 64 {
		return nil, fmt.Errorf("bloom: filter state has %d bits, need >= 64", st.M)
	}
	if st.K < 1 || st.K > 16 {
		return nil, fmt.Errorf("bloom: filter state has k=%d, need 1..16", st.K)
	}
	words := int((st.M + 63) / 64)
	if len(st.Bits) != words*8 {
		return nil, fmt.Errorf("bloom: filter state has %d bit-image bytes, want %d for m=%d", len(st.Bits), words*8, st.M)
	}
	bits := make([]uint64, words)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(st.Bits[i*8:])
	}
	return &Filter{bits: bits, m: st.M, k: st.K, count: st.Count}, nil
}
