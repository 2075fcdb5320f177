// Package store implements an in-memory columnar table engine. It is the
// storage substrate of the Blaeu reproduction and plays the role MonetDB
// plays in the paper's architecture (Fig. 4): typed column storage, null
// tracking, predicate scans, projection and sampling.
package store

import "math/bits"

// Bitmap is a dense bitset used for null masks and row selections.
// The zero value is an empty bitmap. A column's null bitmap is empty or
// covers the column: a column with no null may hold no words at all,
// since bits past the end read as clear.
type Bitmap struct {
	words []uint64
	n     int // logical length in bits
}

// NewBitmap returns a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// newBitmapCap returns an empty bitmap with room for n bits.
func newBitmapCap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, 0, (n+63)/64)}
}

// Len returns the logical number of bits.
func (b *Bitmap) Len() int { return b.n }

// Resize grows (or shrinks) the bitmap to n bits. New bits are clear.
func (b *Bitmap) Resize(n int) {
	words := (n + 63) / 64
	for len(b.words) < words {
		b.words = append(b.words, 0)
	}
	b.words = b.words[:words]
	// Clear any tail bits beyond n so Count stays correct.
	if rem := n % 64; rem != 0 && words > 0 {
		b.words[words-1] &= (1 << uint(rem)) - 1
	}
	b.n = n
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	if i >= b.n {
		b.Resize(i + 1)
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// setCovering sets bit i of b, which is empty or covers n bits — a
// null bitmap as gather writes one — making it cover them at its first
// bit.
func (b *Bitmap) setCovering(n, i int) {
	if b.n == 0 {
		b.words = resize(b.words, bitmapWords(n))
		clear(b.words)
		b.n = n
	}
	b.words[i>>6] |= 1 << (i & 63)
}

// Get reports whether bit i is set. Out-of-range bits read as clear.
func (b *Bitmap) Get(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool {
	if b == nil {
		return false
	}
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}
