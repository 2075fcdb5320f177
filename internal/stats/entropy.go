package stats

import (
	"math"
	"sort"

	"repro/internal/store"
)

// Entropy returns the Shannon entropy (nats) of a discrete distribution
// given by symbol labels; label -1 denotes missing and is skipped.
func Entropy(labels []int) float64 {
	counts := make(map[int]int)
	n := 0
	for _, l := range labels {
		if l < 0 {
			continue
		}
		counts[l]++
		n++
	}
	return entropyFromCounts(counts, n)
}

func entropyFromCounts(counts map[int]int, n int) float64 {
	if n == 0 {
		return 0
	}
	// Accumulate in sorted key order, not map order: float addition is
	// not associative, so the low-order bits of H would otherwise vary
	// run to run, and NormalizedMI feeds dependency-graph edge weights
	// that pinned-seed tests compare bit for bit.
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := 0.0
	fn := float64(n)
	for _, k := range keys {
		c := counts[k]
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log(p)
	}
	return h
}

// MutualInformation returns the mutual information I(X;Y) in nats between
// two discrete label sequences of equal length. Pairs with a missing value
// (-1) on either side are skipped (pairwise deletion).
func MutualInformation(x, y []int) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	// Fast path: small dense alphabets (the common case — discretized
	// columns have ~10 bins) use array-backed contingency tables, which
	// is an order of magnitude faster than maps and matters because the
	// dependency graph computes O(cols²) of these.
	maxX, maxY := -1, -1
	for i := 0; i < n; i++ {
		if x[i] > maxX {
			maxX = x[i]
		}
		if y[i] > maxY {
			maxY = y[i]
		}
	}
	if maxX < denseMILimit && maxY < denseMILimit {
		return denseMI(x, y, n, maxX+1, maxY+1)
	}
	joint := make(map[[2]int]int)
	cx := make(map[int]int)
	cy := make(map[int]int)
	m := 0
	for i := 0; i < n; i++ {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		joint[[2]int{x[i], y[i]}]++
		cx[x[i]]++
		cy[y[i]]++
		m++
	}
	if m == 0 {
		return 0
	}
	// Sorted-cell iteration for the same reason as entropyFromCounts:
	// map-order float accumulation is nondeterministic in its low bits.
	cells := make([][2]int, 0, len(joint))
	for k := range joint {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a][0] != cells[b][0] {
			return cells[a][0] < cells[b][0]
		}
		return cells[a][1] < cells[b][1]
	})
	fm := float64(m)
	mi := 0.0
	for _, k := range cells {
		pxy := float64(joint[k]) / fm
		px := float64(cx[k[0]]) / fm
		py := float64(cy[k[1]]) / fm
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0 { // numeric noise
		mi = 0
	}
	return mi
}

// denseMILimit bounds the alphabet size of the array-backed MI fast path
// (kx*ky table of ints; 256² = 512 KiB worst case, transient).
const denseMILimit = 256

func denseMI(x, y []int, n, kx, ky int) float64 {
	if kx <= 0 || ky <= 0 {
		return 0
	}
	joint := make([]int, kx*ky)
	cx := make([]int, kx)
	cy := make([]int, ky)
	m := 0
	for i := 0; i < n; i++ {
		xi, yi := x[i], y[i]
		if xi < 0 || yi < 0 {
			continue
		}
		joint[xi*ky+yi]++
		cx[xi]++
		cy[yi]++
		m++
	}
	if m == 0 {
		return 0
	}
	fm := float64(m)
	mi := 0.0
	for xi := 0; xi < kx; xi++ {
		if cx[xi] == 0 {
			continue
		}
		px := float64(cx[xi]) / fm
		row := joint[xi*ky : (xi+1)*ky]
		for yi, c := range row {
			if c == 0 {
				continue
			}
			pxy := float64(c) / fm
			py := float64(cy[yi]) / fm
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// NormalizedMI returns I(X;Y) / sqrt(H(X)·H(Y)), a symmetric dependency
// score in [0,1]. This is the edge weight of Blaeu's dependency graph:
// it copes with mixed types and detects non-linear relationships (§3).
// Degenerate variables (zero entropy) score 0.
func NormalizedMI(x, y []int) float64 {
	hx, hy := Entropy(x), Entropy(y)
	if hx <= 0 || hy <= 0 {
		return 0
	}
	nmi := MutualInformation(x, y) / math.Sqrt(hx*hy)
	if nmi > 1 {
		nmi = 1
	}
	if nmi < 0 {
		nmi = 0
	}
	return nmi
}

// DiscretizeColumn converts any store column to discrete labels suitable
// for entropy computation: numeric columns are binned into equal-frequency
// bins, booleans read as 0/1, categorical columns use their dictionary
// codes, and nulls map to -1.
func DiscretizeColumn(c store.Column, bins int) []int {
	n := c.Len()
	out := make([]int, n)
	// Dispatch on the column's type, not its concrete implementation, so
	// segment-backed columns discretize identically to in-memory ones:
	// both backings expose the same dictionary codes for strings and the
	// same 0/1 reading for bools, which is what keeps NMI — and hence
	// theme detection — independent of the storage backing.
	coder, hasCodes := c.(interface{ Code(int) int32 })
	switch {
	case c.Type() == store.String && hasCodes: // dictionary-encoded strings
		for i := 0; i < n; i++ {
			out[i] = int(coder.Code(i)) // -1 for nulls
		}
	case c.Type() == store.Bool:
		for i := 0; i < n; i++ {
			switch v := c.Float(i); {
			case math.IsNaN(v): // null
				out[i] = -1
			case v != 0:
				out[i] = 1
			}
		}
	default:
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = c.Float(i) // NaN for nulls
		}
		d := NewDiscretizer(vals, bins)
		for i := 0; i < n; i++ {
			out[i] = d.Bin(vals[i])
		}
	}
	return out
}
