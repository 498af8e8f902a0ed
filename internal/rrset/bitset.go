package rrset

import "math/bits"

// bitset is a packed grow-only bit vector used for per-set coverage
// tombstones: 1 bit per RR set instead of the 1 byte of a []bool, an 8×
// cut of per-advertiser coverage state that Table 3's memory columns
// report through MemoryFootprint.
type bitset struct {
	words []uint64
	n     int
}

// extend grows the bitset to at least n bits, cleared. Words are always
// materialized through append(…, 0), so a freshly entered word never
// carries stale bits.
func (b *bitset) extend(n int) {
	for len(b.words) < (n+63)/64 {
		b.words = append(b.words, 0)
	}
	b.n = max(b.n, n)
}

// appendZero extends the bitset by one cleared bit.
func (b *bitset) appendZero() { b.extend(b.n + 1) }

// get reports bit i.
func (b *bitset) get(i int32) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// set sets bit i.
func (b *bitset) set(i int32) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// appendSet appends the indices of the set bits to dst, ascending.
func (b *bitset) appendSet(dst []int32) []int32 {
	for w, word := range b.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// clear zeroes every bit, keeping the length.
func (b *bitset) clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// reset empties the bitset, keeping its capacity.
func (b *bitset) reset() {
	b.words, b.n = b.words[:0], 0
}

// bytes reports the bitset's heap footprint.
func (b *bitset) bytes() int64 { return int64(cap(b.words)) * 8 }
