package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// smoke runs every experiment at reduced scale; each must produce a
// non-empty result table.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Config{Seed: 7, Scale: 0.05})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result id = %q", res.ID)
			}
			if len(res.Rows) == 0 {
				t.Errorf("%s produced no rows", id)
			}
			out := res.Format()
			if !strings.Contains(out, strings.ToUpper(id)) {
				t.Errorf("%s format missing header:\n%s", id, out)
			}
			if Describe(id) == "" {
				t.Errorf("%s has no description", id)
			}
		})
	}
}

func TestVerboseAddsArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	res, err := Run("f1b", Config{Seed: 7, Scale: 0.05, Verbose: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Artifacts["treemap"]; !ok {
		t.Error("verbose f1b should include the treemap artifact")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{"a1", "a2", "a4", "e1", "e2", "e3", "e4", "e5", "e6", "f1a", "f1b", "f1c", "f1d", "f2", "f3", "f4", "s1", "s2", "s3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

// TestE6ProductTable checks e6's oracle table rather than archiving it:
// 2 sizes × 2 oracles rows, each true-cost ratio (against the matrix
// cell of its size) exactly 1, the bound the cluster tests pin for both
// storages (TestLazyOracleMatchesDistMatrix). Scale 0.05 is the smoke
// scale.
func TestE6ProductTable(t *testing.T) {
	res, err := Run("e6", Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range res.Headers {
		col[h] = i
	}
	for _, h := range []string{"n", "oracle", "cost ratio"} {
		if _, ok := col[h]; !ok {
			t.Fatalf("e6 has no %q column: %v", h, res.Headers)
		}
	}
	cells := map[[2]string]bool{}
	for _, row := range res.Rows {
		oracle := row[col["oracle"]]
		cells[[2]string{row[col["n"]], oracle}] = true
		ratio, err := strconv.ParseFloat(row[col["cost ratio"]], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if ratio != 1 {
			t.Errorf("n=%s %s: cost ratio %v, want exactly 1 for an exact oracle", row[col["n"]], oracle, ratio)
		}
	}
	if len(res.Rows) != 4 || len(cells) != 4 {
		t.Errorf("e6 has %d rows over %d distinct (n, oracle) cells, want 2×2 = 4", len(res.Rows), len(cells))
	}
}

func TestResultFormatAligned(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Headers: []string{"a", "long-header"},
		Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	r.note("hello %d", 42)
	r.artifact("art", "content\n")
	out := r.Format()
	for _, want := range []string{"== X — demo ==", "long-header", "note: hello 42", "--- art ---"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Columns align: header and rows start at same offset for col 2.
	lines := strings.Split(out, "\n")
	idx := strings.Index(lines[1], "long-header")
	if strings.Index(lines[3], "2") != idx {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestConfigScaled(t *testing.T) {
	c := Config{Scale: 0.5}
	c.defaults()
	if c.scaled(100) != 50 {
		t.Errorf("scaled = %d", c.scaled(100))
	}
	tiny := Config{Scale: 0.0001}
	tiny.defaults()
	if c2 := tiny.scaled(100); c2 != 10 {
		t.Errorf("floor = %d, want 10", c2)
	}
	def := Config{}
	def.defaults()
	if def.Scale != 1 || def.Seed != 1 {
		t.Error("defaults wrong")
	}
}
