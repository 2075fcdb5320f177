package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// materialized is the baseline backing of the differential below: a
// relation whose every column gather goes through a full-width
// Relation.Gather and which, being no store type, the scan sees without
// pages or zone maps and the matcher compiler evaluates through the
// generic Column interface, row by row.
type materialized struct{ store.Relation }

func (m materialized) Column(i int) store.Column {
	return materializedCol{m.Relation.Column(i), m.Relation}
}

func (m materialized) ColumnByName(name string) store.Column {
	c := m.Relation.ColumnByName(name)
	if c == nil {
		return nil
	}
	return materializedCol{c, m.Relation}
}

type materializedCol struct {
	store.Column
	rel store.Relation
}

func (c materializedCol) Gather(rows []int) store.Column {
	return c.rel.Gather(rows).ColumnByName(c.Name())
}

// Code keeps string columns discretizing by dictionary code, as both
// store backings do.
func (c materializedCol) Code(i int) int32 {
	return c.Column.(interface{ Code(int) int32 }).Code(i)
}

// streamTestServer serves the planted-blobs dataset from both backings
// under the given engine options — built twice by the differential
// below, once as production serves it and once with every backing
// wrapped by wrap into the materialized baseline.
func streamTestServer(t *testing.T, opts core.Options, wrap func(store.Relation) store.Relation) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: 3, Dims: 4, Sep: 8}, rng)

	dir := t.TempDir()
	csvPath := filepath.Join(dir, "blobs.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteCSV(f, ds.Table); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "blobs.seg")
	if _, err := store.BuildSegment(csvPath, segPath, &store.SegmentBuildOptions{RowsPerPage: 64}); err != nil {
		t.Fatal(err)
	}
	seg, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(64*1024, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	mem, err := store.ReadCSVFile(csvPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem.SetName("mem")
	seg.SetName("seg")

	ts := httptest.NewServer(NewWith(map[string]store.Relation{"mem": wrap(mem), "seg": wrap(seg)}, opts, nil))
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamedServerMatchesMaterialized is the HTTP half of the
// streamed-front-half differential: two servers over the same bytes —
// one on the production path (projected gathers, scan-path filters),
// one over the materialized baseline — must serve identical themes,
// maps, zooms and filtered selections, on both backings.
func TestStreamedServerMatchesMaterialized(t *testing.T) {
	opts := core.Options{Seed: 1, SampleSize: 400}
	streamed := streamTestServer(t, opts, func(r store.Relation) store.Relation { return r })
	baseline := streamTestServer(t, opts, func(r store.Relation) store.Relation { return materialized{r} })

	navigate := func(ts *httptest.Server, dataset string) string {
		id, st := openSession(t, ts, dataset)
		base := ts.URL + "/api/sessions/" + id
		sel := doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
		zoom := doJSON(t, "POST", base+"/zoom", map[string][]int{"path": {0}}, http.StatusOK)
		filt := doJSON(t, "POST", base+"/filter", map[string]string{"expr": "v0 >= 0"}, http.StatusOK)
		return fmt.Sprintf("%v|%v|%v|%v|%v", st["themes"], sel["map"], zoom["map"], zoom["rows"], filt["rows"])
	}
	for _, dataset := range []string{"mem", "seg"} {
		got := navigate(streamed, dataset)
		want := navigate(baseline, dataset)
		if got != want {
			d := 0
			for d < len(got) && d < len(want) && got[d] == want[d] {
				d++
			}
			lo := max(0, d-60)
			t.Fatalf("dataset %s: streamed and materialized servers diverge near %q vs %q",
				dataset, got[lo:min(len(got), d+60)], want[lo:min(len(want), d+60)])
		}
		if !strings.Contains(got, "|") {
			t.Fatalf("dataset %s: empty navigation transcript", dataset)
		}
	}
}
