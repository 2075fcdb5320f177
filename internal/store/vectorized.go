package store

// Compiled predicate evaluation: Predicate.Matches pays a column-name
// map lookup and interface dispatch on every row, which dominates scan
// time. CompileMatcher resolves each leaf's column exactly once and
// returns a closure over the concrete storage (raw float64/int64
// slices, dictionary codes), so the per-row work collapses to a slice
// index and a comparison. It is the one production row-at-a-time
// evaluator: the scan (hence every Filter and the row-set filter) runs
// on it, and the tree router (route.go) falls back to it for any split
// its batch kernels do not cover. Predicate.Matches stays as the
// reference semantics the differential tests compare against.

// CompileMatcher returns a per-row matcher equivalent to p.Matches
// over r, with all column lookups hoisted out of the row loop. The
// returned closure is not safe for concurrent use (segment-backed
// leaves keep a one-page cursor); compile per goroutine.
func CompileMatcher(r Relation, p Predicate) func(i int) bool {
	switch p := p.(type) {
	case NumCmp:
		return compileNumCmp(r, p)
	case StrEq:
		return compileStrEq(r, p)
	case StrIn:
		return compileStrIn(r, p)
	case IsNull:
		c := r.ColumnByName(p.Col)
		if c == nil {
			return matchNone
		}
		isNull := compileIsNull(c)
		if p.Not {
			return func(i int) bool { return !isNull(i) }
		}
		return isNull
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
		isNull := compileIsNull(c)
		return func(i int) bool { return isNull(i) || m(i) }
	case True:
		return matchAll
	default:
		// Unknown predicate type: fall back to its own Matches with the
		// relation captured once.
		return func(i int) bool { return p.Matches(r, i) }
	}
}

func matchAll(int) bool  { return true }
func matchNone(int) bool { return false }

// compileIsNull returns a null test with the column resolved.
func compileIsNull(c Column) func(i int) bool {
	if sc, ok := c.(*segCol); ok {
		return sc.nullMatcher()
	}
	if c.NullCount() == 0 {
		return matchNone
	}
	return func(i int) bool { return c.IsNull(i) }
}

// cmpFloat returns the comparison against val for op.
func cmpFloat(op CmpOp, val float64) func(v float64) bool {
	switch op {
	case Lt:
		return func(v float64) bool { return v < val }
	case Le:
		return func(v float64) bool { return v <= val }
	case Gt:
		return func(v float64) bool { return v > val }
	case Ge:
		return func(v float64) bool { return v >= val }
	case Eq:
		return func(v float64) bool { return v == val }
	case Ne:
		return func(v float64) bool { return v != val }
	}
	return func(float64) bool { return false }
}

func compileNumCmp(r Relation, p NumCmp) func(i int) bool {
	c := r.ColumnByName(p.Col)
	if c == nil {
		return matchNone
	}
	cmp := cmpFloat(p.Op, p.Val)
	switch c := c.(type) {
	case *FloatColumn:
		vals := c.vals
		if c.NullCount() == 0 {
			return func(i int) bool { return cmp(vals[i]) } //blaeu:hot
		}
		nulls := c.nulls
		return func(i int) bool { return !nulls.Get(i) && cmp(vals[i]) } //blaeu:hot
	case *IntColumn:
		vals := c.vals
		if c.NullCount() == 0 {
			return func(i int) bool { return cmp(float64(vals[i])) } //blaeu:hot
		}
		nulls := c.nulls
		return func(i int) bool { return !nulls.Get(i) && cmp(float64(vals[i])) } //blaeu:hot
	case *BoolColumn:
		vals, nulls := c.vals, c.nulls
		return func(i int) bool {
			if nulls.Get(i) {
				return false
			}
			v := 0.0
			if vals.Get(i) {
				v = 1
			}
			return cmp(v)
		}
	case *segCol:
		return c.numMatcher(cmp)
	default:
		return func(i int) bool {
			if c.IsNull(i) {
				return false
			}
			return cmp(c.Float(i))
		}
	}
}

func compileStrEq(r Relation, p StrEq) func(i int) bool {
	c := r.ColumnByName(p.Col)
	if c == nil {
		return matchNone
	}
	switch c := c.(type) {
	case *StringColumn:
		// Dictionary fast path: resolve the constant to a code once and
		// compare int32 codes, never materializing strings.
		want, present := c.index[p.Val]
		codes, nulls := c.codes, c.nulls
		notNull := func(i int) bool { return !nulls.Get(i) }
		if c.NullCount() == 0 {
			notNull = func(int) bool { return true }
		}
		if p.Neq {
			if !present {
				return notNull
			}
			return func(i int) bool { return notNull(i) && codes[i] != want }
		}
		if !present {
			return matchNone
		}
		return func(i int) bool { return notNull(i) && codes[i] == want }
	case *segCol:
		return c.strMatcher([]string{p.Val}, p.Neq)
	default:
		return genericStrMatcher(c, []string{p.Val}, p.Neq)
	}
}

func compileStrIn(r Relation, p StrIn) func(i int) bool {
	c := r.ColumnByName(p.Col)
	if c == nil {
		return matchNone
	}
	switch c := c.(type) {
	case *StringColumn:
		want := make(map[int32]bool, len(p.Vals))
		any := false
		for _, v := range p.Vals {
			if code, ok := c.index[v]; ok {
				want[code] = true
				any = true
			}
		}
		if !any {
			return matchNone
		}
		codes, nulls := c.codes, c.nulls
		if c.NullCount() == 0 {
			return func(i int) bool { return want[codes[i]] }
		}
		return func(i int) bool { return !nulls.Get(i) && want[codes[i]] }
	case *segCol:
		return c.strMatcher(p.Vals, false)
	default:
		return genericStrMatcher(c, p.Vals, false)
	}
}

// genericStrMatcher is the string comparison for columns without
// dictionary codes: rendered values against the constants (rare —
// region predicates only use string equality on string columns).
func genericStrMatcher(c Column, vals []string, neq bool) func(i int) bool {
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
