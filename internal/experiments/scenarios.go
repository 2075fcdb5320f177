package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/store"
)

func init() {
	register("s1", "§4.2 scenario 1 — Hollywood (900×12)", runS1)
	register("s3", "§4.2 scenario 3 — LOFAR (~200k×40)", runS3)
	register("f4", "Fig.4 — architecture: end-to-end HTTP session", runF4)
}

// newBlobExplorer opens an explorer over a planted-blob dataset with one
// curated theme covering every column (blob data has a single planted
// theme by construction); blobTheme names it.
func newBlobExplorer(ds *datagen.Dataset, seed int64, sampleSize int) (*core.Explorer, error) {
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed:                 seed,
		SampleSize:           sampleSize,
		DependencySampleRows: 500,
	})
	if err != nil {
		return nil, err
	}
	_, err = e.AddTheme(ds.Table.ColumnNames())
	return e, err
}

// blobTheme returns the ID of the curated all-columns theme added by
// newBlobExplorer (always the last theme).
func blobTheme(e *core.Explorer) int { return len(e.Themes()) - 1 }

func runS1(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := datagen.Hollywood(rng)
	start := time.Now()
	e, err := core.NewExplorer(ds.Table, core.Options{Seed: cfg.Seed, SampleSize: cfg.scaled(2000)})
	if err != nil {
		return nil, err
	}
	themeTime := time.Since(start)

	res := &Result{ID: "s1", Title: "Hollywood scenario: 900 movies × 12 columns (paper §4.2)",
		Headers: []string{"step", "outcome", "value", "latency"}}
	res.addRow("theme detection", "themes", fmt.Sprintf("%d", len(e.Themes())),
		themeTime.Round(time.Millisecond).String())

	// The demo asks: which films are profitable, which fail? Map the
	// money theme (the one containing Profitability).
	moneyID := slices.IndexFunc(e.Themes(), func(th core.Theme) bool { return slices.Contains(th.Columns, "Profitability") })
	if moneyID < 0 {
		if moneyID, err = e.AddTheme([]string{"Budget", "WorldwideGross", "Profitability", "RottenTomatoes"}); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	m, err := e.SelectTheme(moneyID)
	if err != nil {
		return nil, err
	}
	mapTime := time.Since(start)
	pred := regionLabels(m, ds.Table.NumRows())
	res.addRow("map on money theme", fmt.Sprintf("k=%d, ARI vs planted archetypes", m.K),
		fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["rows"], pred)), mapTime.Round(time.Millisecond).String())

	// Zoom into the most profitable region and highlight genres.
	prof := ds.Table.ColumnByName("Profitability")
	mean := func(r *core.Region) float64 {
		sum := 0.0
		r.RowIDs().Each(func(i int) { sum += prof.Float(i) })
		return sum / float64(r.Count())
	}
	var best *core.Region
	bestMean := -1.0
	for _, l := range m.Root.Leaves() {
		if l.Count() == 0 {
			continue
		}
		if v := mean(l); v > bestMean {
			bestMean, best = v, l
		}
	}
	start = time.Now()
	if _, err := e.Zoom(best.Path...); err != nil {
		return nil, err
	}
	zoomTime := time.Since(start)
	h, err := e.Highlight("Genre")
	if err != nil {
		return nil, err
	}
	res.addRow("zoom most-profitable region", fmt.Sprintf("%d tuples; mean profitability over all films' mean",
		e.State().Rows.Len()), fmt.Sprintf("%.3f", bestMean/mean(m.Root)), zoomTime.Round(time.Millisecond).String())
	res.addRow("highlight Genre", fmt.Sprintf("%v", h.SampleValues), "—", "—")
	res.note("paper: visitors discover which films are profitable and which fail through elementary queries")
	res.note("implicit query: %s", e.Query())
	res.artifact("map", m.Root.RenderTree())
	return res, nil
}

func runS3(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.scaled(200000)
	genStart := time.Now()
	ds := datagen.LOFAR(datagen.LOFAROptions{N: n}, rng)
	genTime := time.Since(genStart)

	res := &Result{ID: "s3", Title: fmt.Sprintf("LOFAR scenario: %d sources × 40 columns (paper §4.2)", n),
		Headers: []string{"step", "outcome", "value", "latency"}}
	res.addRow("generate catalogue", "rows", fmt.Sprintf("%d", n), genTime.Round(time.Millisecond).String())

	const sampleSize = 2000
	start := time.Now()
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed:                 cfg.Seed,
		SampleSize:           sampleSize,
		DependencySampleRows: 1000,
	})
	if err != nil {
		return nil, err
	}
	res.addRow("theme detection", "themes", fmt.Sprintf("%d", len(e.Themes())),
		time.Since(start).Round(time.Millisecond).String())

	// Map the flux/shape theme (population signature lives there).
	id, err := e.AddTheme([]string{"SpectralIndex", "TotalFlux", "MajorAxis", "AxisRatio", "Variability", "SNR", "Compactness"})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	m, err := e.SelectTheme(id)
	if err != nil {
		return nil, err
	}
	mapTime := time.Since(start)
	res.addRow("map physical-properties theme", fmt.Sprintf("k=%d, ARI vs planted populations", m.K),
		fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["rows"], regionLabels(m, n))), mapTime.Round(time.Millisecond).String())
	res.addRow("map sample", fmt.Sprintf("tuples clustered of %d", n), fmt.Sprintf("%d", m.SampleSize), "—")

	// Zoom into the largest region at full scale.
	var biggest *core.Region
	for _, l := range m.Root.Leaves() {
		if biggest == nil || l.Count() > biggest.Count() {
			biggest = l
		}
	}
	start = time.Now()
	zm, err := e.Zoom(biggest.Path...)
	if err != nil {
		return nil, err
	}
	res.addRow("zoom largest region", fmt.Sprintf("k=%d; tuples clustered of %d", zm.K, e.State().Rows.Len()),
		fmt.Sprintf("%d", zm.SampleSize), time.Since(start).Round(time.Millisecond).String())
	res.note("paper: visitors 'experience Blaeu with a large, complex dataset' — interaction must stay fast at 100,000s of tuples")
	res.note("measured: every action clusters a sample of at most %d tuples regardless of n (multi-scale sampling)", sampleSize)
	return res, nil
}

// runF4 drives the full web architecture end to end: datasets → session →
// select → zoom → highlight → project → rollback over HTTP.
func runF4(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hw := datagen.Hollywood(rng)
	srv := server.NewWith(map[string]store.Relation{"hollywood": hw.Table},
		core.Options{Seed: cfg.Seed, SampleSize: cfg.scaled(2000)}, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res := &Result{ID: "f4", Title: "Architecture: HTTP session driving all four actions (paper Fig. 4)",
		Headers: []string{"request", "status", "latency"}}

	call := func(method, path string, body any) (map[string]any, error) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequest(method, ts.URL+path, &buf)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		res.addRow(fmt.Sprintf("%s %s", method, path), resp.Status,
			time.Since(start).Round(time.Millisecond).String())
		if resp.StatusCode >= 400 {
			return out, fmt.Errorf("%s %s: %s (%v)", method, path, resp.Status, out["error"])
		}
		return out, nil
	}

	st, err := call("POST", "/api/sessions", map[string]string{"dataset": "hollywood"})
	if err != nil {
		return nil, err
	}
	sid := st["sessionId"].(string)
	base := "/api/sessions/" + sid
	if _, err := call("POST", base+"/select", map[string]int{"theme": 0}); err != nil {
		return nil, err
	}
	st, err = call("GET", base, nil)
	if err != nil {
		return nil, err
	}
	// First leaf path.
	mp := st["map"].(map[string]any)
	node := mp["root"].(map[string]any)
	var path []int
	for {
		ch, ok := node["children"].([]any)
		if !ok || len(ch) == 0 {
			break
		}
		node = ch[0].(map[string]any)
		path = append(path, 0)
	}
	if _, err := call("POST", base+"/zoom", map[string]any{"path": path}); err != nil {
		return nil, err
	}
	if _, err := call("GET", base+"/highlight?column=Genre", nil); err != nil {
		return nil, err
	}
	if _, err := call("POST", base+"/project", map[string]int{"theme": 1}); err != nil {
		return nil, err
	}
	if _, err := call("POST", base+"/rollback", nil); err != nil {
		return nil, err
	}
	if _, err := call("GET", base+"/map.svg", nil); err != nil {
		return nil, err
	}
	if _, err := call("DELETE", base, nil); err != nil {
		return nil, err
	}
	res.note("paper architecture: MonetDB → R mapping engine → NodeJS session manager → HTML/JS client")
	res.note("reproduction: columnar store → Go mapping engine → session registry → JSON/SVG over HTTP; every action round-trips")
	return res, nil
}
