package store

import (
	"fmt"
	"strconv"
	"strings"
)

// Predicate decides whether a row of a table matches a condition. Predicates
// are the select part of Blaeu's implicitly-built Select-Project queries:
// every region of a data map is described by a conjunction of predicates.
type Predicate interface {
	// Matches reports whether row i of t satisfies the predicate.
	Matches(t Relation, i int) bool
	// String renders the predicate as a SQL-like expression.
	String() string
}

// CmpOp is a comparison operator for threshold predicates.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota // <
	Le              // <=
	Gt              // >
	Ge              // >=
	Eq              // =
	Ne              // <>
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "<>"
	}
	return "?"
}

// Negate returns the complementary operator (< becomes >=, etc.).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	case Eq:
		return Ne
	case Ne:
		return Eq
	}
	return op
}

// holds reports whether v op val.
func (op CmpOp) holds(v, val float64) bool {
	switch op {
	case Lt:
		return v < val
	case Le:
		return v <= val
	case Gt:
		return v > val
	case Ge:
		return v >= val
	case Eq:
		return v == val
	case Ne:
		return v != val
	}
	return false
}

// NumCmp compares a numeric column against a constant threshold.
// Null values never match.
type NumCmp struct {
	Col string
	Op  CmpOp
	Val float64
}

// Matches implements Predicate.
func (p NumCmp) Matches(t Relation, i int) bool {
	c := t.ColumnByName(p.Col)
	if c == nil || c.IsNull(i) {
		return false
	}
	return p.Op.holds(c.Float(i), p.Val)
}

// String implements Predicate. The threshold has six significant
// digits: it comes from a data midpoint, and full float64 precision
// only obscures the map labels. ExactString keeps every digit.
func (p NumCmp) String() string { return text(p, false) }

// StrEq compares a string column against a constant.
type StrEq struct {
	Col string
	Val string
	Neq bool // when true, matches values different from Val
}

// Matches implements Predicate.
func (p StrEq) Matches(t Relation, i int) bool {
	c := t.ColumnByName(p.Col)
	if c == nil || c.IsNull(i) {
		return false
	}
	eq := c.StringAt(i) == p.Val
	if p.Neq {
		return !eq
	}
	return eq
}

// String implements Predicate.
func (p StrEq) String() string {
	op := "="
	if p.Neq {
		op = "<>"
	}
	return quoteIdent(p.Col) + " " + op + " " + quoteString(p.Val)
}

// StrIn matches rows whose string column value belongs to a set.
type StrIn struct {
	Col  string
	Vals []string
}

// Matches implements Predicate.
func (p StrIn) Matches(t Relation, i int) bool {
	c := t.ColumnByName(p.Col)
	if c == nil || c.IsNull(i) {
		return false
	}
	v := c.StringAt(i)
	for _, x := range p.Vals {
		if v == x {
			return true
		}
	}
	return false
}

// String implements Predicate.
func (p StrIn) String() string {
	quoted := make([]string, len(p.Vals))
	for i, v := range p.Vals {
		quoted[i] = quoteString(v)
	}
	return fmt.Sprintf("%s IN (%s)", quoteIdent(p.Col), strings.Join(quoted, ", "))
}

// IsNull matches rows where the column is missing.
type IsNull struct {
	Col string
	Not bool // when true, matches non-null rows
}

// Matches implements Predicate.
func (p IsNull) Matches(t Relation, i int) bool {
	c := t.ColumnByName(p.Col)
	if c == nil {
		return false
	}
	if p.Not {
		return !c.IsNull(i)
	}
	return c.IsNull(i)
}

// String implements Predicate.
func (p IsNull) String() string {
	if p.Not {
		return quoteIdent(p.Col) + " IS NOT NULL"
	}
	return quoteIdent(p.Col) + " IS NULL"
}

// And is the conjunction of predicates. An empty And matches everything.
type And []Predicate

// Matches implements Predicate.
func (ps And) Matches(t Relation, i int) bool {
	for _, p := range ps {
		if !p.Matches(t, i) {
			return false
		}
	}
	return true
}

// String implements Predicate.
func (ps And) String() string { return text(ps, false) }

// Or is the disjunction of predicates. An empty Or matches nothing.
type Or []Predicate

// Matches implements Predicate.
func (ps Or) Matches(t Relation, i int) bool {
	for _, p := range ps {
		if p.Matches(t, i) {
			return true
		}
	}
	return false
}

// String implements Predicate.
func (ps Or) String() string { return text(ps, false) }

// Not negates a predicate.
type Not struct{ P Predicate }

// Matches implements Predicate.
func (p Not) Matches(t Relation, i int) bool { return !p.P.Matches(t, i) }

// String implements Predicate.
func (p Not) String() string { return text(p, false) }

// OrNull matches rows satisfying P or whose Col is missing. It is the
// exact complement of a threshold predicate under SQL-style semantics
// (comparisons never match nulls): the complement of "x < 5" over all
// rows is "x >= 5 OR x IS NULL". Decision trees route missing values to
// the right child, so right-branch region descriptions use OrNull when
// the fitted node saw missing values.
type OrNull struct {
	P   Predicate
	Col string
}

// Matches implements Predicate.
func (p OrNull) Matches(t Relation, i int) bool {
	if c := t.ColumnByName(p.Col); c != nil && c.IsNull(i) {
		return true
	}
	return p.P.Matches(t, i)
}

// String implements Predicate: valid SQL, parenthesized so it embeds in
// conjunctions without precedence surprises.
func (p OrNull) String() string { return text(p, false) }

// True matches every row.
type True struct{}

// Matches implements Predicate.
func (True) Matches(Relation, int) bool { return true }

// String implements Predicate.
func (True) String() string { return "TRUE" }

// ExactString renders p as String does, but with every numeric
// constant in shortest round-trip form, so ParsePredicate reads it back
// to the same thresholds: the text of a query or a filter that must
// select what p selects, where String's six digits may not.
func ExactString(p Predicate) string { return text(p, true) }

// text is render into a string of its own.
func text(p Predicate, exact bool) string {
	var sb strings.Builder
	render(&sb, p, exact)
	return sb.String()
}

// render is the one writer of the predicate grammar ParsePredicate
// reads. exact picks the numeric constants' form: shortest round-trip
// digits, or the six significant digits of a label. Predicates without
// numbers or children write their String.
func render(sb *strings.Builder, p Predicate, exact bool) {
	switch p := p.(type) {
	case NumCmp:
		prec := 6
		if exact {
			prec = -1
		}
		var num [32]byte
		sb.WriteString(quoteIdent(p.Col))
		sb.WriteByte(' ')
		sb.WriteString(p.Op.String())
		sb.WriteByte(' ')
		sb.Write(strconv.AppendFloat(num[:0], p.Val, 'g', prec, 64))
	case And:
		if len(p) == 0 {
			sb.WriteString("TRUE")
		}
		for i, q := range p {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			// OR binds looser than AND: nested disjunctions need
			// parentheses to re-parse with the same meaning.
			if _, isOr := q.(Or); isOr {
				sb.WriteByte('(')
				render(sb, q, exact)
				sb.WriteByte(')')
			} else {
				render(sb, q, exact)
			}
		}
	case Or:
		if len(p) == 0 {
			sb.WriteString("FALSE")
		}
		for i, q := range p {
			if i > 0 {
				sb.WriteString(" OR ")
			}
			sb.WriteByte('(')
			render(sb, q, exact)
			sb.WriteByte(')')
		}
	case Not:
		sb.WriteString("NOT (")
		render(sb, p.P, exact)
		sb.WriteByte(')')
	case OrNull:
		sb.WriteByte('(')
		render(sb, p.P, exact)
		sb.WriteString(" OR " + quoteIdent(p.Col) + " IS NULL)")
	default:
		sb.WriteString(p.String())
	}
}

// quoteString renders s as a string literal, an embedded quote doubled —
// the form the tokenizer reads back.
func quoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// quoteIdent renders a column or table name so the tokenizer reads it
// back as that identifier: bare when it is a word the grammar would take
// for nothing else, double-quoted — an embedded quote doubled —
// otherwise: empty, starting with a digit, holding any other byte, or a
// reserved word. The bare case allocates nothing (it runs per region per
// state response).
func quoteIdent(s string) string {
	bare := s != "" && !(s[0] >= '0' && s[0] <= '9') && keyword(s) == ""
	for i := 0; bare && i < len(s); i++ {
		c := s[i]
		bare = c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	if bare {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
