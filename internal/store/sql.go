package store

import (
	"fmt"
	"strconv"
	"strings"
)

// Query is a parsed Select-Project query — the class of queries Blaeu's
// navigation implicitly writes (paper §2: "With Blaeu, our users
// implicitly formulate and refine Select-Project queries").
type Query struct {
	// Columns are the projected column names; empty means SELECT *.
	Columns []string
	// Table is the FROM table name.
	Table string
	// Where filters rows (nil = all rows).
	Where Predicate
	// OrderBy sorts the result.
	OrderBy []SortKey
	// Limit caps the result rows; nil means no LIMIT, and LIMIT 0
	// returns none.
	Limit *int
}

// String renders the query back to SQL, its WHERE clause exact (see
// ExactString): the text runs back to the rows the query selects.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(q.Columns) == 0 {
		sb.WriteString("*")
	}
	for i, c := range q.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(c))
	}
	sb.WriteString(" FROM ")
	sb.WriteString(quoteIdent(q.Table))
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		render(&sb, q.Where, true)
	}
	for i, k := range q.OrderBy {
		if i == 0 {
			sb.WriteString(" ORDER BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(k.Col))
		if k.Desc {
			sb.WriteString(" DESC")
		}
	}
	if q.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.Itoa(*q.Limit))
	}
	return sb.String()
}

// ParseQuery parses a Select-Project query:
//
//	SELECT a, b FROM t WHERE x >= 2 AND s = 'v' ORDER BY a DESC, b LIMIT 10
//	SELECT * FROM t
func ParseQuery(input string) (*Query, error) {
	toks, err := tokenize(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}

	if !p.accept(tokKeyword, "SELECT") {
		return nil, fmt.Errorf("store: query must start with SELECT")
	}
	if p.accept(tokStar, "") {
		// SELECT *
	} else {
		for {
			if p.eof() || p.peek().kind != tokIdent {
				return nil, fmt.Errorf("store: expected column name in SELECT list")
			}
			q.Columns = append(q.Columns, p.next().text)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	if !p.accept(tokKeyword, "FROM") {
		return nil, fmt.Errorf("store: expected FROM")
	}
	if p.eof() || p.peek().kind != tokIdent {
		return nil, fmt.Errorf("store: expected table name after FROM")
	}
	q.Table = p.next().text

	if p.accept(tokKeyword, "WHERE") {
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = pred
	}
	if p.accept(tokKeyword, "ORDER") {
		if !p.accept(tokKeyword, "BY") {
			return nil, fmt.Errorf("store: expected BY after ORDER")
		}
		for {
			if p.eof() || p.peek().kind != tokIdent {
				return nil, fmt.Errorf("store: expected column in ORDER BY")
			}
			k := SortKey{Col: p.next().text}
			if p.accept(tokKeyword, "DESC") {
				k.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			q.OrderBy = append(q.OrderBy, k)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if p.eof() || p.peek().kind != tokNumber {
			return nil, fmt.Errorf("store: expected number after LIMIT")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("store: bad LIMIT value")
		}
		q.Limit = &n
	}
	if !p.eof() {
		return nil, fmt.Errorf("store: unexpected %q after query", p.peek().text)
	}
	return q, nil
}

// Catalog resolves table names for query execution.
type Catalog interface {
	// Lookup returns the named relation, or nil.
	Lookup(name string) Relation
}

// MapCatalog is a Catalog over a map. Values may be in-memory tables
// or segment-backed relations.
type MapCatalog map[string]Relation

// Lookup implements Catalog.
func (m MapCatalog) Lookup(name string) Relation {
	r, ok := m[name]
	if !ok {
		return nil
	}
	return r
}

// Execute runs a parsed query against a catalog, returning a new
// materialized table.
func Execute(q *Query, cat Catalog) (*Table, error) {
	t := cat.Lookup(q.Table)
	if t == nil {
		return nil, fmt.Errorf("store: no table %q", q.Table)
	}
	// Selection. Without an ORDER BY the first Limit matches are the
	// result, so the limit pushes into the scan and it stops at quota
	// instead of running to EOF.
	noOrder := len(q.OrderBy) == 0
	var rows []int
	switch {
	case q.Where != nil && noOrder && q.Limit != nil:
		rows = FilterLimit(t, q.Where, *q.Limit)
	case q.Where != nil:
		rows = t.Filter(q.Where)
	case noOrder && q.Limit != nil:
		rows = rangeRows(0, min(t.NumRows(), *q.Limit))
	default:
		rows = rangeRows(0, t.NumRows())
	}
	result := t.Gather(rows)
	// Order.
	if len(q.OrderBy) > 0 {
		var err error
		result, err = OrderBy(result, q.OrderBy...)
		if err != nil {
			return nil, err
		}
	}
	// Limit.
	if q.Limit != nil && *q.Limit < result.NumRows() {
		result = result.Head(*q.Limit)
	}
	// Projection (last, so ORDER BY may use unprojected columns).
	if len(q.Columns) > 0 {
		var err error
		result, err = result.Project(q.Columns...)
		if err != nil {
			return nil, err
		}
	}
	return result, nil
}

// RunSQL parses and executes a query in one call.
func RunSQL(input string, cat Catalog) (*Table, error) {
	q, err := ParseQuery(input)
	if err != nil {
		return nil, err
	}
	return Execute(q, cat)
}
