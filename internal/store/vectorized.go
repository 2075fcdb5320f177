package store

// Compiled per-row predicate evaluation: the fallback of the batch
// kernels (kernel.go). The scan and the tree router evaluate every
// predicate shape over the store's own column types run by run through
// typed kernels; what no kernel binds — a foreign Column
// implementation, a string comparison over a non-string column, a
// Predicate type of another package — they evaluate row by row through
// the closure CompileMatcher returns, which resolves each leaf's column
// once and reads it through the Column interface. Predicate.Matches
// stays as the reference semantics the differential tests compare
// against.

// CompileMatcher returns a per-row matcher equivalent to p.Matches
// over r, with all column lookups hoisted out of the row loop.
func CompileMatcher(r Relation, p Predicate) func(i int) bool {
	switch p := p.(type) {
	case NumCmp:
		c := r.ColumnByName(p.Col)
		if c == nil {
			return matchNone
		}
		return func(i int) bool { return !c.IsNull(i) && p.Op.holds(c.Float(i), p.Val) }
	case StrEq:
		return strMatcher(r.ColumnByName(p.Col), []string{p.Val}, p.Neq)
	case StrIn:
		return strMatcher(r.ColumnByName(p.Col), p.Vals, false)
	case IsNull:
		c := r.ColumnByName(p.Col)
		if c == nil {
			return matchNone
		}
		return func(i int) bool { return c.IsNull(i) != p.Not }
	case And:
		subs := make([]func(int) bool, len(p))
		for i, q := range p {
			subs[i] = CompileMatcher(r, q)
		}
		//blaeu:hot
		return func(i int) bool {
			for _, m := range subs {
				if !m(i) {
					return false
				}
			}
			return true
		}
	case Or:
		subs := make([]func(int) bool, len(p))
		for i, q := range p {
			subs[i] = CompileMatcher(r, q)
		}
		//blaeu:hot
		return func(i int) bool {
			for _, m := range subs {
				if m(i) {
					return true
				}
			}
			return false
		}
	case Not:
		m := CompileMatcher(r, p.P)
		return func(i int) bool { return !m(i) }
	case OrNull:
		m := CompileMatcher(r, p.P)
		c := r.ColumnByName(p.Col)
		if c == nil {
			return m
		}
		return func(i int) bool { return c.IsNull(i) || m(i) }
	case True:
		return func(int) bool { return true }
	default:
		// Unknown predicate type: fall back to its own Matches with the
		// relation captured once.
		return func(i int) bool { return p.Matches(r, i) }
	}
}

func matchNone(int) bool { return false }

// strMatcher compares the rendered values of c against the constants.
func strMatcher(c Column, vals []string, neq bool) func(i int) bool {
	if c == nil {
		return matchNone
	}
	return func(i int) bool {
		if c.IsNull(i) {
			return false
		}
		s := c.StringAt(i)
		for _, v := range vals {
			if s == v {
				return !neq
			}
		}
		return neq
	}
}
