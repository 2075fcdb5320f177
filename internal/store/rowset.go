package store

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
)

// RowSet is a set of row ids — immutable, ascending, duplicate-free —
// and the one currency of a selection: the paper's initial state is the
// whole table, and every action narrows a selection (zoom, filter) or
// keeps it (project, rollback). At construction a set takes whichever
// form costs the fewest bytes:
//
//   - a range [lo, hi), at 0 bytes a row — the whole table, or any
//     contiguous selection;
//   - a bitmap over its span [lo, hi), at span/8 bytes;
//   - an ascending list, at 8 bytes a row.
//
// Readers never ask which: Len, Each, AppendTo, Pick and
// Fingerprint read any form, and the kernels read a set as page runs
// (runs). Safe for concurrent use.
type RowSet struct {
	lo, hi int      // the span: every row lies in [lo, hi)
	n      int      // cardinality
	words  []uint64 // the bitmap form: bit i is row lo+i
	ids    []int    // the list form
}

// All returns the rows [0, n): the whole of an n-row relation, at no
// cost per row.
func All(n int) *RowSet { return &RowSet{hi: n, n: n} }

// RowsOf returns the set of ids, which must be strictly ascending and
// non-negative; it panics otherwise. It takes ownership: the list form
// keeps ids, so the caller must not modify them afterwards.
func RowsOf(ids []int) *RowSet {
	s := listOf(ids)
	switch span := s.hi - s.lo; {
	case s.n == span:
		s.ids = nil
	case bitmapWins(s.n, span):
		s.ids, s.words = nil, make([]uint64, bitmapWords(span))
		for _, r := range ids {
			d := uint(r - s.lo)
			s.words[d>>6] |= 1 << (d & 63)
		}
	}
	return s
}

// listOf is RowsOf that keeps the list form whatever the span: a set for
// a caller that hands in a list and reads back lists (PartitionRows), so
// no bitmap is built only to be decoded again.
func listOf(ids []int) *RowSet {
	for k, r := range ids {
		if r < 0 || k > 0 && r <= ids[k-1] {
			panic(fmt.Sprintf("store: row set not strictly ascending and non-negative at position %d (row %d)", k, r))
		}
	}
	if len(ids) == 0 {
		return &RowSet{}
	}
	return &RowSet{lo: ids[0], hi: ids[len(ids)-1] + 1, n: len(ids), ids: ids}
}

// bitmapWords is the length of a bitmap over span rows.
func bitmapWords(span int) int { return (span + 63) >> 6 }

// bitmapWins reports whether n rows spanning span rows cost fewer bytes
// as a bitmap than as a list.
func bitmapWins(n, span int) bool { return bitmapWords(span) < n }

// Len returns how many rows the set holds.
func (s *RowSet) Len() int { return s.n }

// Fingerprint hashes the set's form, seeded with its size: a range by
// its bounds, a bitmap by its first row and its words, a list by its
// ids, one 64-bit mix a word. So a range costs O(1) and any other set at
// most span/64 mixes, with no memo. It is the selection part of the
// engine's cache keys, and equal sets hash equal because every set that
// reaches a key is in its smallest form: All, RowsOf and the routing
// nodes' sets (Routing.Rows, and ScanRows through it) pick the form from
// (n, span), and an empty set is the range {0, 0, 0}. Only listOf keeps
// a list whatever the span, and its sets (PartitionRows') never reach a
// key.
func (s *RowSet) Fingerprint() uint64 {
	h := mix64(uint64(s.n))
	switch {
	case s.ids != nil:
		return mixAll(h, s.ids)
	case s.words != nil:
		return mixAll(mix64(h^uint64(s.lo)), s.words)
	}
	return mix64(mix64(h^uint64(s.lo)) ^ uint64(s.hi))
}

// mixAll folds xs into h, one mix64 a word, in four interleaved chains
// so that consecutive mixes overlap in the pipeline, then joins them.
func mixAll[T int | uint64](h uint64, xs []T) uint64 {
	c := [4]uint64{h, h + 1, h + 2, h + 3}
	for i, x := range xs {
		c[i&3] = mix64(c[i&3] ^ uint64(x))
	}
	return mix64(mix64(mix64(c[0]^c[1])^c[2]) ^ c[3])
}

// mix64 is one splitmix64 step (the golden-ratio increment, then the
// finalizer): a bijection that spreads every input bit over the output.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Each calls fn with every row, ascending.
func (s *RowSet) Each(fn func(row int)) {
	switch {
	case s.ids != nil:
		for _, r := range s.ids {
			fn(r)
		}
	case s.words != nil:
		for wi, w := range s.words {
			for ; w != 0; w &= w - 1 {
				fn(s.lo + wi<<6 + bits.TrailingZeros64(w))
			}
		}
	default:
		for r := s.lo; r < s.hi; r++ {
			fn(r)
		}
	}
}

// AppendTo appends the rows to dst, ascending, and returns the result.
func (s *RowSet) AppendTo(dst []int) []int {
	dst = slices.Grow(dst, s.n)
	s.Each(func(r int) { dst = append(dst, r) })
	return dst
}

// Pick maps the positions pos — ascending, each in [0, Len) — to the
// rows at those positions, in place, and returns pos: the rows a sample
// of positions draws.
func (s *RowSet) Pick(pos []int) []int {
	switch {
	case s.ids != nil:
		for k, p := range pos {
			pos[k] = s.ids[p]
		}
	case s.words != nil:
		wi, before := 0, 0 // before counts the rows in words[:wi]
		for k, p := range pos {
			for c := bits.OnesCount64(s.words[wi]); before+c <= p; c = bits.OnesCount64(s.words[wi]) {
				before += c
				wi++
			}
			w := s.words[wi]
			for j := before; j < p; j++ {
				w &= w - 1
			}
			pos[k] = s.lo + wi<<6 + bits.TrailingZeros64(w)
		}
	default:
		for k, p := range pos {
			pos[k] = s.lo + p
		}
	}
	return pos
}

// runs is how the kernels read a set: it cuts the set into runs of at
// most limit rows that share a page of rpp rows (rpp 0: no page bound)
// and hands each to fn, in order, with its position in the set and its
// page, until fn returns false. A list's runs are sub-slices of it; a
// range's and a bitmap's are decoded into one pooled scratch per pass
// (runScratch). Either way fn must neither keep nor modify run.
func (s *RowSet) runs(limit, rpp int, fn func(off, page int, run []int) bool) {
	var buf []int
	if s.ids == nil {
		sc := takeRunScratch()
		defer sc.release()
		sc.ids = resize(sc.ids, min(limit, s.n))
		buf = sc.ids
	}
	wi, w := 0, uint64(0) // the bitmap cursor: w holds the unread bits of words[wi]
	if s.words != nil {
		w = s.words[0]
	}
	for off := 0; off < s.n; {
		var run []int
		page, want := 0, min(limit, s.n-off)
		switch {
		case s.ids != nil:
			run = s.ids[off : off+want]
			if rpp > 0 {
				page = run[0] / rpp
				run = run[:splitBefore(run, (page+1)*rpp)]
			}
		case s.words != nil:
			for w == 0 {
				wi++
				w = s.words[wi]
			}
			end := s.hi
			if rpp > 0 {
				page = (s.lo + wi<<6 + bits.TrailingZeros64(w)) / rpp
				end = (page + 1) * rpp
			}
			var k int
			k, wi, w = decodeBits(buf[:want], s.words, s.lo, end, wi, w)
			run = buf[:k]
		default:
			lo := s.lo + off
			hi := lo + want
			if rpp > 0 {
				page = lo / rpp
				hi = min(hi, (page+1)*rpp)
			}
			run = buf[:hi-lo]
			fillSeq(run, lo)
		}
		if !fn(off, page, run) {
			return
		}
		off += len(run)
	}
}

// setBuilder writes a set whose size and span are known before the first
// row is: its producer — a routing node's collect, which the scan
// operators' results are too — allocates the set at its final size and
// form, then adds its rows a run at a time, ascending.
type setBuilder struct {
	s *RowSet
	k int // rows added
}

// newSetBuilder starts the set of n rows spanning [lo, hi) in its
// smallest form; a range is complete at once.
func newSetBuilder(n, lo, hi int) *setBuilder {
	b := &setBuilder{s: &RowSet{lo: lo, hi: hi, n: n}}
	switch span := hi - lo; {
	case n == span:
		b.k = n
	case bitmapWins(n, span):
		b.s.words = make([]uint64, bitmapWords(span))
	default:
		b.s.ids = make([]int, n)
	}
	return b
}

// newListBuilder starts a list of n rows, for the operators whose
// result is a []int.
func newListBuilder(n int) *setBuilder {
	return &setBuilder{s: &RowSet{n: n, ids: make([]int, n)}}
}

// done reports whether every row has been added.
func (b *setBuilder) done() bool { return b.k == b.s.n }

// add writes the rows of run whose byte in m is 1; nm is how many.
func (b *setBuilder) add(run []int, m []uint8, nm int) {
	switch s := b.s; {
	case s.ids != nil:
		fillMatched(run, m, s.ids[b.k:b.k+nm])
	case s.words != nil && nm > 0:
		// Only the rows from the first match to the last lie in the span.
		i, j := bytes.IndexByte(m, 1), bytes.LastIndexByte(m, 1)+1
		setBits(s.words, s.lo, run[i:j], m[i:j])
	}
	b.k += nm
}

// fillMatched writes the first len(dst) candidates whose match byte is
// set into dst; cand holds at least that many. Every candidate is
// stored and the write position advances only past a match, so the
// loop carries no data-dependent branch.
//
//blaeu:hot
func fillMatched(cand []int, m []uint8, dst []int) {
	for k, j := 0, 0; j < len(dst); k++ {
		dst[j] = cand[k]
		j += int(m[k])
	}
}

// splitBefore returns the count of leading entries of rows below bound
// (rows ascending) — the boundary used to slice a row set at a page
// edge.
//
//blaeu:hot
func splitBefore(rows []int, bound int) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// decodeBits writes into dst, from bit w of words[wi] on (w holds the
// word's unread bits; bit i of the bitmap is row base+i), the rows below
// end, and returns how many it wrote and the cursor after them. A word
// that fits whole in dst and below end is decoded without a test per
// row.
//
//blaeu:hot
func decodeBits(dst []int, words []uint64, base, end, wi int, w uint64) (int, int, uint64) {
	k := 0
	for {
		for w == 0 {
			if wi+1 == len(words) {
				return k, wi, 0
			}
			wi++
			w = words[wi]
		}
		row0 := base + wi<<6
		if k+bits.OnesCount64(w) > len(dst) || row0+63 >= end {
			break
		}
		for ; w != 0; w &= w - 1 {
			dst[k] = row0 + bits.TrailingZeros64(w)
			k++
		}
	}
	// The word reaches past dst or past end: row by row, up to either.
	for row0 := base + wi<<6; w != 0 && k < len(dst); w &= w - 1 {
		r := row0 + bits.TrailingZeros64(w)
		if r >= end {
			break
		}
		dst[k] = r
		k++
	}
	return k, wi, w
}

// setBits sets the bit of every row of run — ascending, not empty —
// whose match byte is 1: the byte is shifted in, so the loop carries no
// data-dependent branch, and a word is gathered in a register until the
// rows leave it.
//
//blaeu:hot
func setBits(words []uint64, base int, run []int, m []uint8) {
	wi, acc := uint(run[0]-base)>>6, uint64(0)
	for k, r := range run {
		d := uint(r - base)
		if d>>6 != wi {
			words[wi] |= acc
			wi, acc = d>>6, 0
		}
		acc |= uint64(m[k]) << (d & 63)
	}
	words[wi] |= acc
}
