package experiments

import (
	"fmt"
	"math"
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
	var countries *Result
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Config{Seed: 7, Scale: 0.05})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if id == "s2" {
				countries = res
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
	// Fig. 1's panels are rows of the one Countries walk, s2: each panel
	// must come out of that run with its rows filled in.
	for _, panel := range []string{"1a", "1b", "1c", "1d"} {
		t.Run("f"+panel, func(t *testing.T) {
			if countries == nil {
				t.Fatal("s2 produced no result")
			}
			n := 0
			for _, row := range countries.Rows {
				if !strings.HasPrefix(row[0], panel+" ") {
					continue
				}
				n++
				if len(row) != len(countries.Headers) || row[len(row)-1] == "" {
					t.Errorf("Fig. %s row %q is incomplete", panel, row)
				}
			}
			if n == 0 {
				t.Errorf("s2 has no Fig. %s rows:\n%s", panel, countries.Format())
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{"a1", "a2", "a4", "e1", "e2", "e3", "e4", "f2", "f3", "f4", "s1", "s2", "s3"}
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

// claimRuns runs experiment id at the given scale once under every claim
// seed, in claimSeeds order: the one run per seed that every check of the
// experiment reads.
func claimRuns(t *testing.T, id string, scale float64) []*Result {
	t.Helper()
	runs := make([]*Result, len(claimSeeds))
	for i, seed := range claimSeeds {
		res, err := Run(id, Config{Seed: seed, Scale: scale})
		if err != nil {
			t.Fatalf("%s seed %d: %v", id, seed, err)
		}
		runs[i] = res
	}
	return runs
}

// claimRows runs experiment id at the given scale under every claim seed
// and hands check each row with the named columns parsed as numbers; a
// row whose cell in any of them is not a number (e2's CLARA-only "—") is
// skipped. It returns how many rows were checked.
func claimRows(t *testing.T, id string, scale float64, cols []string, check func(seed int64, v []float64)) int {
	t.Helper()
	checked := 0
	for si, res := range claimRuns(t, id, scale) {
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = column(t, res, c)
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
			check(claimSeeds[si], v)
			checked++
		}
	}
	return checked
}

// column returns the index of the named column of res.
func column(t *testing.T, res *Result, name string) int {
	t.Helper()
	c := slices.Index(res.Headers, name)
	if c < 0 {
		t.Fatalf("%s has no %q column: %v", res.ID, name, res.Headers)
	}
	return c
}

// cell parses the number in column col of the row of res whose first
// cell is key.
func cell(t *testing.T, res *Result, key, col string) float64 {
	t.Helper()
	c := column(t, res, col)
	for _, row := range res.Rows {
		if row[0] == key {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("%s row %q: %v", res.ID, key, err)
			}
			return v
		}
	}
	t.Fatalf("%s has no row %q", res.ID, key)
	return 0
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

// claimTests names the test that holds each experiment's paper claim.
var claimTests = map[string]func(*testing.T){
	"a1": TestA1MICatchesWhatPearsonMisses,
	"a2": TestA2DefaultDepthNearKnee,
	"a4": TestA4FewRowsFindThemes,
	"e1": TestE1SamplingKeepsAccuracy,
	"e2": TestE2ClaraTracksPAM,
	"e3": TestE3MonteCarloTracksExact,
	"e4": TestE4AutoKFindsPlantedK,
	"f2": TestF2GraphHasTwoCommunities,
	"f3": TestF3TreeApproximatesClusters,
	"f4": TestF4EveryActionRoundTrips,
	"s1": TestS1MapFindsProfitableFilms,
	"s2": TestS2CountriesWalk,
	"s3": TestS3SampleBoundsLargeTables,
}

// TestEveryExperimentHasClaimTest: an experiment that only prints the
// paper's claim cannot be registered; each one's claim is held by a test
// over claimSeeds.
func TestEveryExperimentHasClaimTest(t *testing.T) {
	for _, id := range IDs() {
		if claimTests[id] == nil {
			t.Errorf("experiment %s has no claim test in claimTests", id)
		}
	}
	for id := range claimTests {
		if Describe(id) == "" {
			t.Errorf("claimTests names %s, which is not a registered experiment", id)
		}
	}
}

// extremes tracks the smallest and largest value a claimed quantity takes
// over the claim seeds, for the log line a bound is re-measured from.
type extremes struct{ lo, hi float64 }

func newExtremes() *extremes { return &extremes{lo: math.Inf(1), hi: math.Inf(-1)} }

func (x *extremes) add(v float64) { x.lo, x.hi = min(x.lo, v), max(x.hi, v) }

func (x *extremes) String() string { return fmt.Sprintf("[%.3f, %.3f]", x.lo, x.hi) }

// TestA1MICatchesWhatPearsonMisses holds a1's claim (§3): MI was chosen
// because "it copes with mixed values and it is sensitive to non-linear
// relationships". Both measures catch the linear pair and reject noise;
// only NMI catches the quadratic, sine and categorical ones.
func TestA1MICatchesWhatPearsonMisses(t *testing.T) {
	const (
		linearNMI  = 0.6  // worst measured over claimSeeds: 0.741
		linearR    = 0.9  // worst: 0.996
		nonLinNMI  = 0.4  // worst (sine): 0.460
		nonLinGap  = 0.1  // NMI - |Pearson|; worst (sine): 0.141
		noiseBound = 0.05 // both measures; worst: 0.025 (|Pearson|)
	)
	lin, nl, gap, noise := newExtremes(), newExtremes(), newExtremes(), newExtremes()
	for i, res := range claimRuns(t, "a1", 1) {
		seed := claimSeeds[i]
		nmi := func(pair string) float64 { return cell(t, res, "x ↔ "+pair, "NMI weight") }
		r := func(pair string) float64 { return cell(t, res, "x ↔ "+pair, "|Pearson| weight") }
		lin.add(min(nmi("linear"), r("linear")))
		if nmi("linear") < linearNMI || r("linear") < linearR {
			t.Errorf("seed %d: linear pair NMI %v, |Pearson| %v; want at least %v and %v", seed, nmi("linear"), r("linear"), linearNMI, linearR)
		}
		for _, pair := range []string{"quadratic", "sine", "category"} {
			nl.add(nmi(pair))
			gap.add(nmi(pair) - r(pair))
			if nmi(pair) < nonLinNMI || nmi(pair)-r(pair) < nonLinGap {
				t.Errorf("seed %d: %s pair NMI %v, |Pearson| %v; want NMI at least %v and %v above |Pearson|", seed, pair, nmi(pair), r(pair), nonLinNMI, nonLinGap)
			}
		}
		noise.add(max(nmi("noise"), r("noise")))
		if nmi("noise") > noiseBound || r("noise") > noiseBound {
			t.Errorf("seed %d: noise pair NMI %v, |Pearson| %v; bound %v", seed, nmi("noise"), r("noise"), noiseBound)
		}
	}
	t.Logf("linear %v, non-linear NMI %v, NMI-|Pearson| %v, noise %v", lin, nl, gap, noise)
}

// TestA2DefaultDepthNearKnee holds a2's claim (§3): the description tree
// "only approximates the real partitions", and the approximation
// saturates with depth, so Blaeu's default depth of 3 gives up little
// fidelity for a readable map. (Training fidelity cannot fall with depth —
// a split with majority leaves never loses a row — so that is not checked.)
func TestA2DefaultDepthNearKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const (
		atDefault = 0.8  // fidelity at depth 3; worst measured over claimSeeds: 0.875
		kneeGap   = 0.12 // fidelity at depth 6 minus depth 3; worst: 0.076
	)
	fid := map[int64][]float64{}
	rows := claimRows(t, "a2", 0.25, []string{"max depth", "fidelity"}, func(seed int64, v []float64) {
		if int(v[0]) != len(fid[seed])+1 {
			t.Fatalf("seed %d: depth %v out of order", seed, v[0])
		}
		fid[seed] = append(fid[seed], v[1])
	})
	if want := 6 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d rows, want %d", rows, want)
	}
	def, gap := newExtremes(), newExtremes()
	for _, seed := range claimSeeds {
		f := fid[seed]
		def.add(f[2])
		gap.add(f[5] - f[2])
		if f[2] < atDefault || f[5]-f[2] > kneeGap {
			t.Errorf("seed %d: fidelity %v at depth 3, %v at depth 6; want at least %v and within %v", seed, f[2], f[5], atDefault, kneeGap)
		}
	}
	t.Logf("depth-3 fidelity %v, depth 6 - depth 3 %v", def, gap)
}

// TestA4FewRowsFindThemes holds a4's claim (§3): the dependency graph's
// statistics are estimated on a sample, and a few hundred rows recover the
// planted themes. At scale 0.25 the table has 12 500 rows, so every size
// that runs (25 to 2000) is a real sample of it.
func TestA4FewRowsFindThemes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const (
		fewHundred = 250
		bound      = 0.95 // recovery from ≥ fewHundred rows; worst measured over claimSeeds: 1.000
	)
	rec := newExtremes()
	rows := claimRows(t, "a4", 0.25, []string{"sampled rows", "theme recovery"}, func(seed int64, v []float64) {
		if v[0] < fewHundred {
			return
		}
		rec.add(v[1])
		if v[1] < bound {
			t.Errorf("seed %d: recovery %v from %v sampled rows, bound %v", seed, v[1], v[0], bound)
		}
	})
	if want := 7 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d rows, want %d", rows, want)
	}
	t.Logf("recovery from at least %d rows %v", fewHundred, rec)
}

// TestF2GraphHasTwoCommunities holds Fig. 2's claim: the dependency graph
// of the unemployment and health columns shows two communities, and PAM
// over it separates them.
func TestF2GraphHasTwoCommunities(t *testing.T) {
	const (
		within = 0.2  // NMI of a pair in one community; worst measured over claimSeeds: 0.273
		across = 0.05 // NMI of a pair across them; worst: 0.006
	)
	in, out := newExtremes(), newExtremes()
	for i, res := range claimRuns(t, "f2", 1) {
		seed := claimSeeds[i]
		if len(res.Rows) != 15 {
			t.Fatalf("seed %d: %d column pairs, want 15", seed, len(res.Rows))
		}
		w, planted, pam := column(t, res, "NMI weight"), column(t, res, "planted"), column(t, res, "PAM")
		for _, row := range res.Rows {
			v, err := strconv.ParseFloat(row[w], 64)
			if err != nil {
				t.Fatal(err)
			}
			if row[planted] == "together" {
				in.add(v)
				if v < within {
					t.Errorf("seed %d: %s-%s NMI %v, want at least %v", seed, row[0], row[1], v, within)
				}
			} else {
				out.add(v)
				if v > across {
					t.Errorf("seed %d: %s-%s NMI %v across the communities, bound %v", seed, row[0], row[1], v, across)
				}
			}
			if row[pam] != row[planted] {
				t.Errorf("seed %d: PAM puts %s and %s %s, planted %s", seed, row[0], row[1], row[pam], row[planted])
			}
		}
	}
	t.Logf("within %v, across %v", in, out)
}

// TestF3TreeApproximatesClusters holds Fig. 3's claim (§3): the decision
// tree "only approximates the real partitions detected during the
// clustering step" — closely on separated clusters, less so as noise
// grows — and the map's end-to-end ARI tracks the clustering's.
func TestF3TreeApproximatesClusters(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const (
		separated = 0.95 // fidelity at noise ≤ 1; worst measured over claimSeeds: 0.972
		noisy     = 0.85 // fidelity at any noise; worst: 0.922
		track     = 0.15 // |cluster ARI - end-to-end ARI|; worst: 0.092
	)
	sep, all, tr := newExtremes(), newExtremes(), newExtremes()
	rows := claimRows(t, "f3", 0.25, []string{"noise", "cluster ARI", "tree fidelity", "end-to-end ARI"}, func(seed int64, v []float64) {
		all.add(v[2])
		if v[0] <= 1 {
			sep.add(v[2])
		}
		tr.add(math.Abs(v[1] - v[3]))
		if v[2] < noisy || (v[0] <= 1 && v[2] < separated) {
			t.Errorf("seed %d noise %v: fidelity %v, bound %v (%v at noise ≤ 1)", seed, v[0], v[2], noisy, separated)
		}
		if math.Abs(v[1]-v[3]) > track {
			t.Errorf("seed %d noise %v: cluster ARI %v, end-to-end ARI %v; bound %v apart", seed, v[0], v[1], v[3], track)
		}
	})
	if want := 12 * len(claimSeeds); rows != want {
		t.Fatalf("checked %d rows, want %d", rows, want)
	}
	t.Logf("fidelity at noise ≤ 1 %v, at any noise %v, |cluster - end-to-end ARI| %v", sep, all, tr)
}

// TestF4EveryActionRoundTrips holds Fig. 4's claim: the architecture
// serves every action of a session over HTTP — open, select, state, zoom,
// highlight, project, rollback, the SVG map and close.
func TestF4EveryActionRoundTrips(t *testing.T) {
	for i, res := range claimRuns(t, "f4", 0.25) {
		if len(res.Rows) != 9 {
			t.Fatalf("seed %d: %d requests, want 9", claimSeeds[i], len(res.Rows))
		}
		status := column(t, res, "status")
		for _, row := range res.Rows {
			if !strings.HasPrefix(row[status], "2") {
				t.Errorf("seed %d: %s answered %s", claimSeeds[i], row[0], row[status])
			}
		}
	}
}

// TestS1MapFindsProfitableFilms holds scenario 1's claim (§4.2): on the
// Hollywood table, the money theme's map separates the planted film
// archetypes, and its most profitable region, the one the demo zooms into,
// is more profitable than the films at large.
func TestS1MapFindsProfitableFilms(t *testing.T) {
	const (
		ariBound  = 0.38 // worst measured over claimSeeds: 0.422
		liftBound = 1.03 // zoomed region's mean profitability over all films'; worst: 1.063
	)
	ari, lift := newExtremes(), newExtremes()
	for i, res := range claimRuns(t, "s1", 1) {
		a := cell(t, res, "map on money theme", "value")
		l := cell(t, res, "zoom most-profitable region", "value")
		ari.add(a)
		lift.add(l)
		if a < ariBound || l < liftBound {
			t.Errorf("seed %d: ARI %v, profitability lift %v; bounds %v and %v", claimSeeds[i], a, l, ariBound, liftBound)
		}
	}
	t.Logf("ARI %v, lift %v", ari, lift)
}

// TestS2CountriesWalk holds the claims of Fig. 1a–1d and scenario 2
// (§4.2) over one walk per seed. Where the engine's automatic k decides
// the outcome (it sometimes merges the two low-hours labor clusters, and
// then the zoom lands on both), the bound counts the seeds that reproduce
// the figure instead of holding every seed to it.
func TestS2CountriesWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const (
		themes    = 0.95 // Fig. 1a theme recovery; worst measured over claimSeeds: 0.997
		labor     = 0.35 // Fig. 1b labor map ARI; worst: 0.422
		hierarchy = 4    // seeds whose labor map splits on hours and income; measured: 5 of 8
		zoomARI   = 0.1  // Fig. 1c zoom ARI vs the planted sub-clusters ...
		zoomSeeds = 4    // ... reached on this many seeds; measured: 5 of 8
		trio      = 5    // seeds highlighting all of Switzerland, Norway, Canada; measured: 6 of 8
		unemp     = 0.8  // Fig. 1d projection ARI; worst: 0.849
		canada1d  = 6    // seeds still highlighting Canada after the projection; measured: 7 of 8
		canada    = 0.8  // §4.2 share of Canada's regions in the zoomed region; worst: 0.873
	)
	th, lab, un, can := newExtremes(), newExtremes(), newExtremes(), newExtremes()
	var split, zoomed, trioSeeds, canadaSeeds int
	for i, res := range claimRuns(t, "s2", 0.25) {
		seed := claimSeeds[i]
		v := func(key string) float64 { return cell(t, res, key, "value") }
		th.add(v("1a theme recovery"))
		lab.add(v("1b labor map ARI"))
		un.add(v("1d projection ARI"))
		can.add(v("4.2 Canada in low-hours/high-income"))
		if v("1a theme recovery") < themes || v("1b labor map ARI") < labor || v("1d projection ARI") < unemp ||
			v("4.2 Canada in low-hours/high-income") < canada {
			t.Errorf("seed %d: theme recovery %v, labor ARI %v, projection ARI %v, Canada share %v; bounds %v, %v, %v, %v", seed,
				v("1a theme recovery"), v("1b labor map ARI"), v("1d projection ARI"), v("4.2 Canada in low-hours/high-income"),
				themes, labor, unemp, canada)
		}
		split += int(v("1b splits on hours and income"))
		if v("1c zoom ARI") >= zoomARI {
			zoomed++
		}
		if v("1c Switzerland/Norway/Canada highlighted") == 3 {
			trioSeeds++
		}
		canadaSeeds += int(v("1d Canada highlighted"))
	}
	if split < hierarchy || zoomed < zoomSeeds || trioSeeds < trio || canadaSeeds < canada1d {
		t.Errorf("of %d seeds: %d split on hours and income (want %d), %d zoom ARI ≥ %v (want %d), %d highlight the trio (want %d), %d still highlight Canada (want %d)",
			len(claimSeeds), split, hierarchy, zoomed, zoomARI, zoomSeeds, trioSeeds, trio, canadaSeeds, canada1d)
	}
	t.Logf("theme recovery %v, labor ARI %v, projection ARI %v, Canada share %v; seeds: %d split, %d zoomed, %d trio, %d Canada",
		th, lab, un, can, split, zoomed, trioSeeds, canadaSeeds)
}

// TestS3SampleBoundsLargeTables holds scenario 3's claim (§4.2): on a
// LOFAR catalogue of 50 000 sources (scale 0.25) every action clusters a
// sample of at most 2000 tuples, whatever the table's size, and the map
// still separates the planted source populations.
func TestS3SampleBoundsLargeTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	const (
		sample   = 2000 // the scenario's sample size
		ariBound = 0.8  // worst measured over claimSeeds: 0.854
	)
	ari := newExtremes()
	for i, res := range claimRuns(t, "s3", 0.25) {
		seed := claimSeeds[i]
		n := cell(t, res, "generate catalogue", "value")
		mapped, zoomed := cell(t, res, "map sample", "value"), cell(t, res, "zoom largest region", "value")
		if n <= sample || mapped > sample || zoomed > sample {
			t.Errorf("seed %d: %v rows; the map clustered %v tuples and the zoom %v, bound %d", seed, n, mapped, zoomed, sample)
		}
		a := cell(t, res, "map physical-properties theme", "value")
		ari.add(a)
		if a < ariBound {
			t.Errorf("seed %d: ARI %v vs the planted populations, bound %v", seed, a, ariBound)
		}
	}
	t.Logf("ARI %v", ari)
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
