package store

import "testing"

// FuzzParseQuery holds the query parser to its printer: ParseQuery
// returns a query or an error, never panics, and a query it accepted
// renders to text it accepts again and renders identically — what
// Explorer.Query's promise of "valid input for ExecuteQuery" rests on.
func FuzzParseQuery(f *testing.F) {
	for _, q := range []string{
		// sql_test.go's queries, the rejected ones included.
		"SELECT name, income FROM countries WHERE hours < 20",
		"SELECT * FROM countries",
		"SELECT name FROM countries ORDER BY income DESC LIMIT 2",
		"SELECT name FROM countries ORDER BY hours ASC LIMIT 1",
		"SELECT name FROM countries WHERE hours < 20 AND income >= 30 OR name = 'US'",
		"SELECT g, v FROM t ORDER BY g, v DESC",
		"SELECT a, b FROM t WHERE x >= 2 AND s = 'v' ORDER BY a DESC, b LIMIT 10",
		"SELECT * FROM countries WHERE TRUE",
		"", "UPDATE t SET x = 1", "SELECT FROM t", "SELECT a FROM t WHERE", "SELECT a FROM t ORDER a",
		"SELECT a FROM t LIMIT -1", "SELECT a FROM t extra", "SELECT a, FROM t",
		// An Explorer.Query rendering: quoted names, a doubled quote, a
		// right branch that kept its nulls.
		`SELECT "2010", "order", title FROM films WHERE title <> 'Ocean''s Eleven' AND ("2010" >= 5.5 OR "2010" IS NULL)`,
		// Names only quoting can carry.
		`SELECT""FROM""`, `SELECT "a""b" FROM "from" WHERE "in" IN ('x', 2) ORDER BY "desc" DESC`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<10 {
			t.Skip("bounding parse cost")
		}
		q, err := ParseQuery(in)
		if err != nil {
			return
		}
		text := q.String()
		again, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("%q parses, but its rendering %q does not: %v", in, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q renders %q, which re-parses to %q", in, text, got)
		}
	})
}
