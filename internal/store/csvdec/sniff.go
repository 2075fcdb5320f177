package csvdec

import (
	"strconv"
	"strings"

	"repro/internal/store/segment"
)

// typeSniffer incrementally infers a column's type from its non-null
// cells, one cell at a time. Flags only clear, so sniffers of disjoint
// row ranges merge into the sniffer of their union.
type typeSniffer struct {
	canInt, canFloat, canBool bool
	seen                      bool
}

func newSniffers(n int) []typeSniffer {
	out := make([]typeSniffer, n)
	for i := range out {
		out[i] = typeSniffer{canInt: true, canFloat: true, canBool: true}
	}
	return out
}

// boolCell is the BOOLEAN test: the cell's value and whether it is one.
func boolCell(s string) (v, ok bool) {
	l := strings.ToLower(s)
	return l == "true", l == "true" || l == "false"
}

// observe narrows the candidate types by one non-null trimmed cell.
func (ts *typeSniffer) observe(s string) {
	ts.seen = true
	if ts.canInt {
		_, err := strconv.ParseInt(s, 10, 64)
		ts.canInt = err == nil
	}
	if ts.canFloat {
		_, err := strconv.ParseFloat(s, 64)
		ts.canFloat = err == nil
	}
	if ts.canBool {
		_, ts.canBool = boolCell(s)
	}
}

func mergeSniffers(into, from []typeSniffer) {
	for j, o := range from {
		ts := &into[j]
		ts.canInt, ts.canFloat, ts.canBool = ts.canInt && o.canInt, ts.canFloat && o.canFloat, ts.canBool && o.canBool
		ts.seen = ts.seen || o.seen
	}
}

// result applies the precedence bool > int > float > string; a column
// with no non-null cells is a string column.
func (ts *typeSniffer) result() segment.Kind {
	switch {
	case !ts.seen:
		return segment.KindString
	case ts.canBool:
		return segment.KindBool
	case ts.canInt:
		return segment.KindInt64
	case ts.canFloat:
		return segment.KindFloat64
	default:
		return segment.KindString
	}
}
