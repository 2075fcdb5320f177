package experiments

import (
	"slices"
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
	want := []string{"a1", "a2", "a4", "e1", "e2", "e3", "e4", "f1a", "f1b", "f1c", "f1d", "f2", "f3", "f4", "s1", "s2", "s3"}
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

// claimSeeds are the seeds the claim tests run each experiment under.
var claimSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// claimRows runs experiment id at the given scale under every claim seed
// and hands check each row with the named columns parsed as numbers; a
// row whose cell in any of them is not a number (e2's CLARA-only "—") is
// skipped. It returns how many rows were checked.
func claimRows(t *testing.T, id string, scale float64, cols []string, check func(seed int64, v []float64)) int {
	t.Helper()
	checked := 0
	for _, seed := range claimSeeds {
		res, err := Run(id, Config{Seed: seed, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = slices.Index(res.Headers, c)
			if idx[i] < 0 {
				t.Fatalf("%s has no %q column: %v", id, c, res.Headers)
			}
		}
	rows:
		for _, row := range res.Rows {
			v := make([]float64, len(cols))
			for i, c := range idx {
				x, err := strconv.ParseFloat(row[c], 64)
				if err != nil {
					continue rows
				}
				v[i] = x
			}
			check(seed, v)
			checked++
		}
	}
	return checked
}

// TestE1SamplingKeepsAccuracy holds e1's claim: a map built from a few
// hundred sampled tuples is about as accurate against the planted truth
// as one built from thousands. At scale 0.05 the table has 5000 rows, so
// every sample size that runs (250 to 4000; 8000 is skipped) is a real
// sample of it; each is held to the largest one's ARI.
func TestE1SamplingKeepsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const margin = 0.08 // worst measured over claimSeeds: 0.034
	aris := map[int64][]float64{}
	rows := claimRows(t, "e1", 0.05, []string{"sample size", "ARI vs planted"}, func(seed int64, v []float64) {
		if v[0] >= 5000 {
			t.Fatalf("seed %d: sample size %v is not below the table's 5000 rows", seed, v[0])
		}
		aris[seed] = append(aris[seed], v[1]) // ascending sample size
	})
	if want := 5 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d rows, want %d", rows, want)
	}
	for seed, a := range aris {
		largest := a[len(a)-1]
		for i, ari := range a[:len(a)-1] {
			if ari < largest-margin {
				t.Errorf("seed %d: ARI %v at the %d-th sample size, %v at the largest; margin %v", seed, ari, i+1, largest, margin)
			}
		}
	}
}

// TestE2ClaraTracksPAM holds e2's claim: CLARA's full-data cost stays
// within a few percent of exact PAM's. At scale 0.25 every compared n
// (125 to 1000) is above CLARA's sub-sample of 80 + 4k = 96 objects, so
// each row is a real CLARA run, not its fall-back to PAM.
func TestE2ClaraTracksPAM(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const bound = 1.08 // worst measured over claimSeeds: 1.055
	rows := claimRows(t, "e2", 0.25, []string{"n", "cost CLARA/PAM"}, func(seed int64, v []float64) {
		if v[0] <= 96 {
			t.Fatalf("seed %d: n=%v does not exceed CLARA's sub-sample", seed, v[0])
		}
		if v[1] > bound {
			t.Errorf("seed %d n=%v: CLARA/PAM cost %v, bound %v", seed, v[0], v[1], bound)
		}
	})
	if want := 4 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d PAM-vs-CLARA rows, want %d", rows, want)
	}
}

// TestE3MonteCarloTracksExact holds e3's claim: the Monte-Carlo
// silhouette lands within a few hundredths of the exact one. At scale
// 0.25 every n (500 to 2500) is above the estimator's sub-sample of 256
// objects, so each row is a real estimate, not the exact fall-back.
func TestE3MonteCarloTracksExact(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const bound = 0.02 // worst measured over claimSeeds: 0.0083
	rows := claimRows(t, "e3", 0.25, []string{"n", "abs err"}, func(seed int64, v []float64) {
		if v[0] <= 256 {
			t.Fatalf("seed %d: n=%v does not exceed the Monte-Carlo sub-sample", seed, v[0])
		}
		if v[1] > bound {
			t.Errorf("seed %d n=%v: |MC - exact| = %v, bound %v", seed, v[0], v[1], bound)
		}
	})
	if want := 3 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d rows, want %d", rows, want)
	}
}

// TestE4AutoKFindsPlantedK holds e4's claim: the silhouette sweep
// recovers the planted number of clusters. Every row (planted k 2 to 8
// on 150 tuples at scale 0.25) is a real sweep over k = 2..9.
func TestE4AutoKFindsPlantedK(t *testing.T) {
	const atLeast = 6 // of 7 per seed; worst measured over claimSeeds: 7
	exact := map[int64]int{}
	rows := claimRows(t, "e4", 0.25, []string{"planted k", "chosen k"}, func(seed int64, v []float64) {
		if v[0] == v[1] {
			exact[seed]++
		}
	})
	if want := 7 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d rows, want %d", rows, want)
	}
	for _, seed := range claimSeeds {
		if exact[seed] < atLeast {
			t.Errorf("seed %d: %d of 7 planted k recovered, want at least %d", seed, exact[seed], atLeast)
		}
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
