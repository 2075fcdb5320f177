package store

import (
	"fmt"
	"sort"
)

// SortKey describes one ORDER BY term.
type SortKey struct {
	// Col is the column to sort by.
	Col string
	// Desc sorts descending when true.
	Desc bool
}

// SortedIndices returns the row order of t sorted by the given keys
// (nulls sort last regardless of direction; ties broken by later keys,
// then by original position for stability).
func SortedIndices(t *Table, keys ...SortKey) ([]int, error) {
	cols := make([]Column, len(keys))
	for i, k := range keys {
		c := t.ColumnByName(k.Col)
		if c == nil {
			return nil, fmt.Errorf("store: no column %q to sort by", k.Col)
		}
		cols[i] = c
	}
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for ki, c := range cols {
			// Nulls sort last regardless of direction.
			na, nb := c.IsNull(ra), c.IsNull(rb)
			if na || nb {
				if na == nb {
					continue
				}
				return nb
			}
			cmp := compareRows(c, ra, rb)
			if cmp == 0 {
				continue
			}
			if keys[ki].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return idx, nil
}

// compareRows orders two rows of one column; nulls sort after everything.
func compareRows(c Column, a, b int) int {
	na, nb := c.IsNull(a), c.IsNull(b)
	switch {
	case na && nb:
		return 0
	case na:
		return 1
	case nb:
		return -1
	}
	if c.Type() == String {
		sa, sb := c.StringAt(a), c.StringAt(b)
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	}
	fa, fb := c.Float(a), c.Float(b)
	switch {
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	}
	return 0
}

// OrderBy returns a new materialized table sorted by the keys.
func OrderBy(t *Table, keys ...SortKey) (*Table, error) {
	idx, err := SortedIndices(t, keys...)
	if err != nil {
		return nil, err
	}
	return t.Gather(idx), nil
}
