package store

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParsePredicate parses a SQL-style boolean expression into a Predicate:
//
//	hours >= 20 AND (income < 22 OR name = 'CA') AND x IS NOT NULL
//	genre IN ('Action', 'Drama') AND NOT flag = true
//
// Supported: comparison operators < <= > >= = <> != on numbers and quoted
// strings, IS [NOT] NULL, IN (...), AND/OR/NOT with usual precedence
// (NOT > AND > OR), parentheses, and double-quoted identifiers for column
// names that are not plain words (spaces, a leading digit, a reserved
// word); a quote inside a literal of either kind is written twice. This
// is the textual query path of the reproduction: what Blaeu builds by
// clicking, the CLI accepts as text.
func ParsePredicate(input string) (Predicate, error) {
	toks, err := tokenize(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pred, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("store: unexpected %q at end of predicate", p.peek().text)
	}
	return pred, nil
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokOp     // < <= > >= = <> !=
	tokLParen // (
	tokRParen // )
	tokComma
	tokKeyword // AND OR NOT IS NULL IN TRUE FALSE + SQL clause keywords
	tokStar    // *
)

type token struct {
	kind tokKind
	text string
}

// keywords are the reserved words of the predicate and query grammars,
// in the upper-case form their tokens carry.
var keywords = [...]string{"AND", "OR", "NOT", "IS", "NULL", "IN", "TRUE", "FALSE",
	"SELECT", "FROM", "WHERE", "ORDER", "BY", "LIMIT", "ASC", "DESC"}

// keyword returns the reserved word s spells, in any case, or "". It
// allocates nothing: quoteIdent asks it of every name it renders.
func keyword(s string) string {
	if len(s) > len("SELECT") { // the longest of them
		return ""
	}
	for _, k := range keywords {
		if strings.EqualFold(s, k) {
			return k
		}
	}
	return ""
}

// readQuoted reads the body of a literal opened at s[i-1] by quote, a
// doubled quote standing for one, and returns it with the index past the
// closing quote, or -1 when the literal never closes.
func readQuoted(s string, i int, quote byte) (body string, end int) {
	var sb strings.Builder
	for ; i < len(s); i++ {
		if s[i] == quote {
			if i+1 == len(s) || s[i+1] != quote {
				return sb.String(), i + 1
			}
			i++
		}
		sb.WriteByte(s[i])
	}
	return "", -1
}

func tokenize(s string) ([]token, error) {
	var out []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			out = append(out, token{tokLParen, "("})
			i++
		case c == ')':
			out = append(out, token{tokRParen, ")"})
			i++
		case c == ',':
			out = append(out, token{tokComma, ","})
			i++
		case c == '*':
			out = append(out, token{tokStar, "*"})
			i++
		case c == '<' || c == '>' || c == '=' || c == '!':
			op := string(c)
			if i+1 < len(s) && (s[i+1] == '=' || (c == '<' && s[i+1] == '>')) {
				op += string(s[i+1])
				i++
			}
			i++
			if op == "!" {
				return nil, fmt.Errorf("store: stray '!' in predicate")
			}
			out = append(out, token{tokOp, op})
		case c == '\'':
			body, end := readQuoted(s, i+1, c)
			if end < 0 {
				return nil, fmt.Errorf("store: unterminated string literal")
			}
			out = append(out, token{tokString, body})
			i = end
		case c == '"':
			body, end := readQuoted(s, i+1, c)
			if end < 0 {
				return nil, fmt.Errorf("store: unterminated quoted identifier")
			}
			out = append(out, token{tokIdent, body})
			i = end
		case c >= '0' && c <= '9' || c == '-' || c == '.' || c == '+':
			j := i + 1
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == 'e' ||
				s[j] == 'E' || s[j] == '-' || s[j] == '+') {
				// Only allow sign after exponent marker.
				if (s[j] == '-' || s[j] == '+') && !(s[j-1] == 'e' || s[j-1] == 'E') {
					break
				}
				j++
			}
			out = append(out, token{tokNumber, s[i:j]})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) ||
				s[j] == '_' || s[j] == '.') {
				j++
			}
			if k := keyword(s[i:j]); k != "" {
				out = append(out, token{tokKeyword, k})
			} else {
				out = append(out, token{tokIdent, s[i:j]})
			}
			i = j
		default:
			return nil, fmt.Errorf("store: unexpected character %q in predicate", c)
		}
	}
	return out, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool   { return p.pos >= len(p.toks) }
func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) accept(kind tokKind, text string) bool {
	if p.eof() {
		return false
	}
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseOr() (Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []Predicate{left}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Or(terms), nil
}

func (p *parser) parseAnd() (Predicate, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	terms := []Predicate{left}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return And(terms), nil
}

func (p *parser) parseFactor() (Predicate, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Not{P: inner}, nil
	}
	if p.accept(tokLParen, "") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tokRParen, "") {
			return nil, fmt.Errorf("store: missing ')' in predicate")
		}
		return inner, nil
	}
	if p.eof() {
		return nil, fmt.Errorf("store: predicate ends unexpectedly")
	}
	if p.peek().kind == tokKeyword && p.peek().text == "TRUE" {
		p.next()
		return True{}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Predicate, error) {
	if p.eof() || p.peek().kind != tokIdent {
		return nil, fmt.Errorf("store: expected column name, got %q", p.peek().text)
	}
	col := p.next().text

	if p.accept(tokKeyword, "IS") {
		not := p.accept(tokKeyword, "NOT")
		if !p.accept(tokKeyword, "NULL") {
			return nil, fmt.Errorf("store: expected NULL after IS")
		}
		return IsNull{Col: col, Not: not}, nil
	}
	if p.accept(tokKeyword, "IN") {
		if !p.accept(tokLParen, "") {
			return nil, fmt.Errorf("store: expected '(' after IN")
		}
		var vals []string
		for {
			if p.eof() {
				return nil, fmt.Errorf("store: unterminated IN list")
			}
			t := p.next()
			if t.kind != tokString && t.kind != tokNumber {
				return nil, fmt.Errorf("store: bad IN element %q", t.text)
			}
			vals = append(vals, t.text)
			if p.accept(tokRParen, "") {
				break
			}
			if !p.accept(tokComma, "") {
				return nil, fmt.Errorf("store: expected ',' in IN list")
			}
		}
		return StrIn{Col: col, Vals: vals}, nil
	}

	if p.eof() || p.peek().kind != tokOp {
		return nil, fmt.Errorf("store: expected comparison operator after %q", col)
	}
	opText := p.next().text
	var op CmpOp
	switch opText {
	case "<":
		op = Lt
	case "<=":
		op = Le
	case ">":
		op = Gt
	case ">=":
		op = Ge
	case "=":
		op = Eq
	case "<>", "!=":
		op = Ne
	default:
		return nil, fmt.Errorf("store: unknown operator %q", opText)
	}

	if p.eof() {
		return nil, fmt.Errorf("store: missing value after operator")
	}
	val := p.next()
	switch val.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(val.text, 64)
		if err != nil {
			return nil, fmt.Errorf("store: bad number %q: %w", val.text, err)
		}
		return NumCmp{Col: col, Op: op, Val: f}, nil
	case tokString:
		switch op {
		case Eq:
			return StrEq{Col: col, Val: val.text}, nil
		case Ne:
			return StrEq{Col: col, Val: val.text, Neq: true}, nil
		default:
			return nil, fmt.Errorf("store: operator %s not supported for strings", op)
		}
	case tokKeyword:
		switch val.text {
		case "TRUE", "FALSE":
			want := 1.0
			if val.text == "FALSE" {
				want = 0
			}
			if op != Eq && op != Ne {
				return nil, fmt.Errorf("store: operator %s not supported for booleans", op)
			}
			return NumCmp{Col: col, Op: op, Val: want}, nil
		case "NULL":
			return nil, fmt.Errorf("store: use IS NULL, not = NULL")
		}
	}
	return nil, fmt.Errorf("store: bad comparison value %q", val.text)
}
