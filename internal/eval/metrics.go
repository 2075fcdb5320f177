// Package eval provides the external clustering-evaluation metrics
// (adjusted Rand index over labelings, Jaccard set recovery over named
// groups) the experiments use to score Blaeu's recovered clusters and
// themes against the planted ground truth of the synthetic datasets.
package eval

// contingency builds the contingency table between two labelings, ignoring
// pairs where either label is negative.
func contingency(a, b []int) (cells map[[2]int]int, rowSum, colSum map[int]int, n int) {
	cells = make(map[[2]int]int)
	rowSum = make(map[int]int)
	colSum = make(map[int]int)
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	for i := 0; i < m; i++ {
		if a[i] < 0 || b[i] < 0 {
			continue
		}
		cells[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
		n++
	}
	return
}

func comb2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// AdjustedRandIndex returns the ARI between two labelings: 1 for identical
// partitions, ~0 for independent ones, negative for worse-than-chance.
// Pairs with a negative label on either side are ignored.
func AdjustedRandIndex(a, b []int) float64 {
	cells, rowSum, colSum, n := contingency(a, b)
	if n < 2 {
		return 0
	}
	var sumCells, sumRows, sumCols float64
	for _, c := range cells {
		sumCells += comb2(c)
	}
	for _, c := range rowSum {
		sumRows += comb2(c)
	}
	for _, c := range colSum {
		sumCols += comb2(c)
	}
	total := comb2(n)
	expected := sumRows * sumCols / total
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		return 1 // both partitions trivial and identical in structure
	}
	return (sumCells - expected) / (maxIndex - expected)
}

// SetRecovery scores how well predicted groups of named items match truth
// groups: for each truth group it finds the best-Jaccard predicted group
// and averages the Jaccard scores, weighted by truth-group size. Used for
// theme-recovery scoring where themes are sets of column names.
func SetRecovery(truth, pred [][]string) float64 {
	if len(truth) == 0 {
		return 0
	}
	total, weight := 0.0, 0
	for _, tg := range truth {
		best := 0.0
		for _, pg := range pred {
			if j := jaccard(tg, pg); j > best {
				best = j
			}
		}
		total += best * float64(len(tg))
		weight += len(tg)
	}
	if weight == 0 {
		return 0
	}
	return total / float64(weight)
}

func jaccard(a, b []string) float64 {
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	inter := 0
	for _, x := range b {
		if set[x] {
			inter++
		}
	}
	union := len(set) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
