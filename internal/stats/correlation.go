package stats

import (
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient between x and y.
// Pairs with a NaN on either side are skipped. Degenerate inputs return 0.
// Blaeu's paper mentions correlation as an alternative dependency measure;
// we implement it as the ablation baseline (experiment A1).
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sx, sy, sxx, syy, sxy float64
	m := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
		m++
	}
	if m < 2 {
		return 0
	}
	fm := float64(m)
	cov := sxy/fm - (sx/fm)*(sy/fm)
	vx := sxx/fm - (sx/fm)*(sx/fm)
	vy := syy/fm - (sy/fm)*(sy/fm)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	r := cov / math.Sqrt(vx*vy)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}

// Spearman returns the Spearman rank correlation between x and y
// (Pearson on ranks, with midranks for ties).
func Spearman(x, y []float64) float64 {
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks converts values to midranks (1-based); NaNs stay NaN.
func Ranks(vals []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	clean := make([]iv, 0, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			clean = append(clean, iv{i, v})
		}
	}
	sort.Slice(clean, func(a, b int) bool { return clean[a].v < clean[b].v })
	out := make([]float64, len(vals))
	for i := range out {
		out[i] = math.NaN()
	}
	for lo := 0; lo < len(clean); {
		hi := lo
		for hi+1 < len(clean) && clean[hi+1].v == clean[lo].v {
			hi++
		}
		mid := float64(lo+hi)/2 + 1
		for j := lo; j <= hi; j++ {
			out[clean[j].i] = mid
		}
		lo = hi + 1
	}
	return out
}

// Mean returns the arithmetic mean of the non-NaN values (NaN when none).
func Mean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of the non-NaN values.
func StdDev(vals []float64) float64 {
	m := Mean(vals)
	if math.IsNaN(m) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			d := v - m
			sum += d * d
			n++
		}
	}
	return math.Sqrt(sum / float64(n))
}
