package store

import (
	"strings"
	"testing"
)

func sqlCatalog(t *testing.T) MapCatalog {
	t.Helper()
	return MapCatalog{"countries": newTestTable(t)}
}

func TestRunSQLBasic(t *testing.T) {
	cat := sqlCatalog(t)
	res, err := RunSQL("SELECT name, income FROM countries WHERE hours < 20", cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 || res.NumCols() != 2 {
		t.Fatalf("dims = %dx%d", res.NumRows(), res.NumCols())
	}
	if res.ColumnByName("hours") != nil {
		t.Error("projection leaked a column")
	}
}

func TestRunSQLStar(t *testing.T) {
	cat := sqlCatalog(t)
	res, err := RunSQL("SELECT * FROM countries", cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 || res.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", res.NumRows(), res.NumCols())
	}
}

func TestRunSQLOrderLimit(t *testing.T) {
	cat := sqlCatalog(t)
	res, err := RunSQL("SELECT name FROM countries ORDER BY income DESC LIMIT 2", cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// Highest incomes: CH (35) then NO (33).
	if res.Row(0)[0] != "CH" || res.Row(1)[0] != "NO" {
		t.Errorf("rows = %v, %v", res.Row(0), res.Row(1))
	}
}

func TestRunSQLOrderByUnprojected(t *testing.T) {
	// ORDER BY on a column that is not in the SELECT list must work.
	cat := sqlCatalog(t)
	res, err := RunSQL("SELECT name FROM countries ORDER BY hours ASC LIMIT 1", cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Row(0)[0] != "NO" { // lowest hours = 6
		t.Errorf("row = %v", res.Row(0))
	}
}

func TestRunSQLCompoundWhere(t *testing.T) {
	cat := sqlCatalog(t)
	res, err := RunSQL(
		"SELECT name FROM countries WHERE hours < 20 AND income >= 30 OR name = 'US'", cat)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < res.NumRows(); i++ {
		got[res.Row(i)[0]] = true
	}
	for _, want := range []string{"CH", "NO", "CA", "US"} {
		if !got[want] {
			t.Errorf("missing %s (got %v)", want, got)
		}
	}
}

func TestRunSQLMultiOrder(t *testing.T) {
	tab := NewTable("t")
	tab.MustAddColumn(NewStringColumnFrom("g", []string{"b", "a", "a", "b"}))
	tab.MustAddColumn(NewIntColumnFrom("v", []int64{1, 2, 3, 4}))
	res, err := RunSQL("SELECT g, v FROM t ORDER BY g, v DESC", MapCatalog{"t": tab})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"a", "3"}, {"a", "2"}, {"b", "4"}, {"b", "1"}}
	for i, w := range want {
		if res.Row(i)[0] != w[0] || res.Row(i)[1] != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Row(i), w)
		}
	}
}

func TestParseQueryRoundTrip(t *testing.T) {
	q, err := ParseQuery("SELECT a, b FROM t WHERE x >= 2 AND s = 'v' ORDER BY a DESC, b LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	q2, err := ParseQuery(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if q2.String() != s {
		t.Errorf("round trip: %q vs %q", s, q2.String())
	}
	if len(q2.Columns) != 2 || q2.Limit == nil || *q2.Limit != 10 || len(q2.OrderBy) != 2 || !q2.OrderBy[0].Desc {
		t.Errorf("parsed = %+v", q2)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT a t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t ORDER BY",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t extra",
		"SELECT a, FROM t",
	}
	for _, s := range bad {
		if _, err := ParseQuery(s); err == nil {
			t.Errorf("parse %q should fail", s)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	cat := sqlCatalog(t)
	if _, err := RunSQL("SELECT * FROM missing", cat); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := RunSQL("SELECT nope FROM countries", cat); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := RunSQL("SELECT * FROM countries ORDER BY nope", cat); err == nil {
		t.Error("unknown order column should fail")
	}
}

func TestQueryStringQuoting(t *testing.T) {
	q := &Query{Columns: []string{"% long hours"}, Table: "my table",
		Where: NumCmp{Col: "% long hours", Op: Ge, Val: 20}}
	s := q.String()
	if !strings.Contains(s, `"% long hours"`) || !strings.Contains(s, `"my table"`) {
		t.Errorf("quoting missing: %s", s)
	}
	// A name stays bare only if the tokenizer would read it back as that
	// identifier; values double their quotes.
	for name, want := range map[string]string{
		"hours": "hours", "_x1": "_x1", "selection": "selection", "Hours2": "Hours2",
		"": `""`, "2010": `"2010"`, "order": `"order"`, "Limit": `"Limit"`, "in": `"in"`,
		"a.b": `"a.b"`, `a"b`: `"a""b"`, "é": `"é"`,
	} {
		if got := quoteIdent(name); got != want {
			t.Errorf("quoteIdent(%q) = %s, want %s", name, got, want)
		}
	}
	if got := (StrIn{Col: "by", Vals: []string{"it's", ""}}).String(); got != `"by" IN ('it''s', '')` {
		t.Errorf("StrIn renders %s", got)
	}
	// quoteIdent runs per region per state response: the common case —
	// a bare name — must not allocate.
	name := "hours"
	if n := testing.AllocsPerRun(100, func() { name = quoteIdent(name) }); n != 0 {
		t.Errorf("quoteIdent on a bare name allocates %v times", n)
	}
}

func TestRunSQLLimitZeroMeansAll(t *testing.T) {
	cat := sqlCatalog(t)
	res, err := RunSQL("SELECT * FROM countries WHERE TRUE", cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

// TestRunSQLLimitZero: LIMIT 0 returns no rows, with the projected
// schema, on both backings, with and without WHERE and ORDER BY, and
// survives its rendering.
func TestRunSQLLimitZero(t *testing.T) {
	mem, seg := openBoth(t, 1000, 1<<20)
	for _, q := range []string{
		"SELECT * FROM bench LIMIT 0",
		"SELECT x, label FROM bench WHERE x > 50 LIMIT 0",
		"SELECT label FROM bench ORDER BY x DESC LIMIT 0",
		"SELECT x FROM bench WHERE x > 50 ORDER BY label LIMIT 0",
	} {
		parsed, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := parsed.String(); got != q {
			t.Errorf("%q renders as %q", q, got)
		}
		full, err := RunSQL(strings.TrimSuffix(q, " LIMIT 0"), MapCatalog{"bench": mem})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []Relation{mem, seg} {
			res, err := RunSQL(q, MapCatalog{"bench": r})
			if err != nil {
				t.Fatalf("%q on %T: %v", q, r, err)
			}
			if res.NumRows() != 0 || res.Schema().String() != full.Schema().String() {
				t.Errorf("%q on %T: %d rows of %s, want none of %s", q, r, res.NumRows(), res.Schema(), full.Schema())
			}
		}
	}
}
