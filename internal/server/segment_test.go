package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// segmentTestServer serves the same planted-blobs dataset from both
// backings: "mem" in memory and "seg" through a converted segment with
// a small buffer pool.
func segmentTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: 3, Dims: 4, Sep: 8}, rng)
	// A categorical column next to the numeric blobs, for highlights.
	tag := store.NewStringColumn("tag")
	for i := 0; i < ds.Table.NumRows(); i++ {
		tag.Append(fmt.Sprintf("t%d", i%3))
	}
	ds.Table.MustAddColumn(tag)

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

	// Load the CSV back so both backings share the round-tripped values
	// (the generated table renders floats at full precision either way).
	mem, err := store.ReadCSVFile(csvPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem.SetName("mem")
	seg.SetName("seg")

	srv := NewWith(map[string]store.Relation{"mem": mem, "seg": seg},
		core.Options{Seed: 1, SampleSize: 400}, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestSegmentDatasetServesIdenticalSessions drives the HTTP API over a
// segment-backed dataset and its in-memory twin: both must open, build
// the same themes, and navigate to the same maps.
func TestSegmentDatasetServesIdenticalSessions(t *testing.T) {
	ts := segmentTestServer(t)

	navigate := func(dataset string) (any, any) {
		id, st := openSession(t, ts, dataset)
		themes := st["themes"]
		base := ts.URL + "/api/sessions/" + id
		sel := doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
		zoom := doJSON(t, "POST", base+"/zoom", map[string][]int{"path": {0}}, http.StatusOK)
		return themes, []any{sel["map"], zoom["map"], zoom["rows"]}
	}
	memThemes, memMaps := navigate("mem")
	segThemes, segMaps := navigate("seg")
	if fmt.Sprintf("%v", memThemes) != fmt.Sprintf("%v", segThemes) {
		t.Fatalf("themes diverge across backings:\n mem: %v\n seg: %v", memThemes, segThemes)
	}
	if fmt.Sprintf("%v", memMaps) != fmt.Sprintf("%v", segMaps) {
		t.Fatalf("maps diverge across backings:\n mem: %v\n seg: %v", memMaps, segMaps)
	}
}

// TestHighlightBothBackings exercises the inspection path through the
// API over both backings, on a numeric column and on a string column —
// the paper's own Fig. 1c action, whose NaN moments used to fail the
// JSON encoding after the 200 was committed, leaving an empty body.
func TestHighlightBothBackings(t *testing.T) {
	ts := segmentTestServer(t)
	for _, dataset := range []string{"mem", "seg"} {
		id, _ := openSession(t, ts, dataset)
		base := ts.URL + "/api/sessions/" + id
		doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)

		num := doJSON(t, "GET", base+"/highlight?column=v0", nil, http.StatusOK)
		stats, _ := num["Stats"].(map[string]any)
		if num["Column"] != "v0" || stats == nil {
			t.Fatalf("%s: numeric highlight payload: %v", dataset, num)
		}
		if _, ok := stats["Mean"].(float64); !ok {
			t.Errorf("%s: numeric highlight has no mean: %v", dataset, stats)
		}

		str := doJSON(t, "GET", base+"/highlight?column=tag", nil, http.StatusOK)
		stats, _ = str["Stats"].(map[string]any)
		if str["Column"] != "tag" || stats == nil {
			t.Fatalf("%s: string highlight payload: %v", dataset, str)
		}
		if top, _ := stats["TopValues"].([]any); len(top) != 3 {
			t.Errorf("%s: string highlight TopValues = %v, want the 3 tags", dataset, stats["TopValues"])
		}
		for _, moment := range []string{"Min", "Max", "Mean", "Std"} {
			if v, present := stats[moment]; !present || v != nil {
				t.Errorf("%s: string highlight %s = %v, want null", dataset, moment, v)
			}
		}
	}
}
