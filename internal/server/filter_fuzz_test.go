package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
)

// fuzzFilterTable is planted blobs plus the columns FuzzParsePredicate's
// seeds name: f (float), i (int), s (string) and b (bool), each with
// nulls.
func fuzzFilterTable() *store.Table {
	rng := rand.New(rand.NewSource(5))
	t := datagen.PlantedBlobs(datagen.BlobSpec{N: 300, K: 3, Dims: 3, Sep: 8}, rng).Table
	f, i, s, b := store.NewFloatColumn("f"), store.NewIntColumn("i"), store.NewStringColumn("s"), store.NewBoolColumn("b")
	levels := []string{"u", "v", "1", "-2.5", "x"}
	for r := 0; r < t.NumRows(); r++ {
		if r%10 == 0 {
			f.AppendNull()
			i.AppendNull()
			s.AppendNull()
			b.AppendNull()
			continue
		}
		f.Append(rng.NormFloat64())
		i.Append(int64(rng.Intn(12) - 6))
		s.Append(levels[rng.Intn(len(levels))])
		b.Append(rng.Intn(2) == 0)
	}
	for _, c := range []store.Column{f, i, s, b} {
		t.MustAddColumn(c)
	}
	return t
}

// post sends a JSON body to srv in-process.
func post(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// FuzzFilterExpr posts arbitrary filter expressions to a session that
// has a map: the answer is a 200 or a 400, its body is JSON, a 400's
// carries an "error", and nothing panics. A 200 is rolled back, so every
// input filters the same map state. Each fuzz worker opens its own
// session.
func FuzzFilterExpr(f *testing.F) {
	for _, expr := range []string{
		"f >= 0.5 AND s = 'u'", "NOT (i < 0) OR b = 1", "s IN ('u', 'v', '1')", "f IS NULL OR i IS NOT NULL",
		"s <> 'x' AND (f <= -1 OR f > 3)", "nope = 3", "s < 2", "i = '4'", "b != 0 AND b = true", "\"f\" <> 0",
		"f = 1e309", "NOT NOT NOT s != 'u'", "(", "f >", "s IN ()", "",
		"i = 99999999999999999999999999", "v0 > 1e99999",
	} {
		f.Add(expr)
	}
	srv := NewWith(map[string]store.Relation{"t": fuzzFilterTable()}, core.Options{Seed: 1, SampleSize: 300}, nil)
	f.Cleanup(srv.Manager().Shutdown)
	rec := post(srv, "/api/sessions", `{"dataset":"t"}`)
	var st stateJSON
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		f.Fatalf("open: status %d, body %s", rec.Code, rec.Body)
	}
	base := "/api/sessions/" + st.SessionID
	theme := 0 // the blobs' theme, so the filters' maps cluster something
	for _, th := range st.Themes {
		if slices.Contains(th.Columns, "v0") {
			theme = th.ID
		}
	}
	rec = post(srv, base+"/select", fmt.Sprintf(`{"theme":%d}`, theme))
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		f.Fatalf("select: status %d, body %s", rec.Code, rec.Body)
	}
	mapped := st.Depth
	f.Fuzz(func(t *testing.T, expr string) {
		body, err := json.Marshal(map[string]string{"expr": expr})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(srv, base+"/filter", string(body))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%q: status %d, body is not JSON: %s", expr, rec.Code, rec.Body)
		}
		switch rec.Code {
		case http.StatusOK:
			rec := post(srv, base+"/rollback", "")
			var st stateJSON
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.Depth != mapped || st.Map == nil {
				t.Fatalf("%q: rollback after the filter: status %d, body %s", expr, rec.Code, rec.Body)
			}
		case http.StatusBadRequest:
			if _, ok := out["error"].(string); !ok {
				t.Fatalf("%q: a 400 without an error: %s", expr, rec.Body)
			}
		default:
			t.Fatalf("%q: status %d, want 200 or 400; body %s", expr, rec.Code, rec.Body)
		}
	})
}
