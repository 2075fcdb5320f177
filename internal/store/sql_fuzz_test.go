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
		"SELECT a FROM t LIMIT 0",
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

// FuzzExecute runs arbitrary query text through RunSQL over a table and
// its segment of 64-row pages: no input panics, both backings fail or
// neither does, and when neither does their results agree cell for
// cell. Queries reach the scan operators from the SQL side: a WHERE
// with a LIMIT and no ORDER BY through FilterLimit's pushdown, any
// other WHERE through Filter.
func FuzzExecute(f *testing.F) {
	mem, seg := openBoth(f, 300, 1<<20)
	for _, q := range []string{
		// sql_test.go's queries, over the names that have no table or
		// column here.
		"SELECT name, income FROM countries WHERE hours < 20",
		"SELECT * FROM countries",
		"SELECT name FROM countries ORDER BY income DESC LIMIT 2",
		"SELECT * FROM missing", "SELECT nope FROM countries", "SELECT * FROM countries ORDER BY nope",
		// The same shapes over this table.
		"SELECT x, label FROM t WHERE x < 2",
		"SELECT * FROM t",
		"SELECT label FROM t ORDER BY count DESC LIMIT 2",
		"SELECT label FROM t ORDER BY x ASC LIMIT 1",
		"SELECT x FROM t WHERE x < 0 AND count >= 30 OR label = 'beta'",
		"SELECT label, x FROM t ORDER BY label, x DESC",
		"SELECT * FROM t WHERE x >= 2 AND label <> 'gamma' LIMIT 70",
		"SELECT * FROM t WHERE TRUE LIMIT 0",
		"SELECT flag FROM t WHERE ragged IS NULL AND (count IS NOT NULL OR flag = 1) LIMIT 9",
		`SELECT "count" FROM t WHERE label IN ('alpha', 'delta') ORDER BY "count" LIMIT 130`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<10 {
			t.Skip("bounding parse cost")
		}
		want, errMem := RunSQL(in, MapCatalog{"t": mem})
		got, errSeg := RunSQL(in, MapCatalog{"t": seg})
		if (errMem == nil) != (errSeg == nil) {
			t.Fatalf("%q: table error %v, segment error %v", in, errMem, errSeg)
		}
		if errMem == nil {
			assertRelationsEqual(t, want, got)
		}
	})
}
