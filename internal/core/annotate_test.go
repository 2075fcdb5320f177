package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// TestExportPinnedWithAnnotations pins the export bytes of a session
// that annotates a select, a zoom into it and, after the rollback, a
// project of the same theme: a cache hit that shares the select's map.
// The export carries floats (silhouettes, tree accuracy), so the hash
// is the one of a platform that fuses no multiply-add (amd64). Through
// the session the shared map, rendered from a state with no notes, stays
// as it was built.
func TestExportPinnedWithAnnotations(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	shared, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	bare := &State{Map: shared}
	built := bare.MapView()
	unchanged := func(step string) {
		t.Helper()
		if !reflect.DeepEqual(bare.MapView(), built) {
			t.Fatalf("after %s the shared map's view changed", step)
		}
	}
	path := leafPath(t, e)
	if err := e.Annotate("select note", path...); err != nil {
		t.Fatal(err)
	}
	unchanged("annotating the select")
	if _, err := e.Highlight("CountryName", path...); err != nil {
		t.Fatal(err)
	}
	unchanged("a highlight")
	if _, err := e.Zoom(path...); err != nil {
		t.Fatal(err)
	}
	if err := e.Annotate("zoom note"); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	unchanged("the rollback")
	hits := e.ReuseStats().Map.Hits
	if m, err := e.Project(0); err != nil || m != shared {
		t.Fatalf("projecting the selected theme: err %v, served the cached map %v", err, m == shared)
	}
	if e.ReuseStats().Map.Hits != hits+1 {
		t.Fatal("projecting the selected theme was not a map-cache hit")
	}
	if err := e.Annotate("project note", path...); err != nil {
		t.Fatal(err)
	}
	unchanged("annotating the project")
	data, err := e.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	const want = "6917fe90b456dd0bfe3c54890f442387fe61fb79d707aaa05f7df1a2d45b57e8"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("export hash %s, want %s; export was:\n%s", got, want, data)
	}
}

// TestAnnotateDuringHitBuild: a map-cache hit's Run, off the session
// lock, reads nothing Annotate writes, so the current state can be
// annotated while a hit of its own map runs. The hit is served the
// cached map and arrives with no notes. Run under -race by
// `make race-build`.
func TestAnnotateDuringHitBuild(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	m, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	annotated := e.State()
	path := leafPath(t, e)
	b, err := e.Prepare(Action{Kind: ActionProject, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseMapHit {
		t.Fatalf("projecting the selected theme: reuse %q, want %q", b.Reuse(), ReuseMapHit)
	}
	served := make(chan *Map, 1)
	go func() {
		hit, err := b.Run(context.Background(), nil)
		if err != nil {
			t.Error(err)
		}
		served <- hit
	}()
	const notes = 100
	for i := 0; i < notes; i++ {
		if err := e.Annotate(fmt.Sprintf("note %d", i), path...); err != nil {
			t.Fatal(err)
		}
	}
	hit := <-served
	if hit != m {
		t.Fatal("the hit served a copy, not the cached map")
	}
	if err := e.ApplyBuild(b, hit); err != nil {
		t.Fatal(err)
	}
	region, err := m.Root.Find(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := annotated.Annotations(region); len(got) != notes {
		t.Errorf("the annotated state holds %d notes, want %d", len(got), notes)
	}
	for _, r := range regionsOf(hit) {
		if got := e.State().Annotations(r); len(got) != 0 {
			t.Errorf("the hit's state arrived with notes on region %v: %v", r.Path, got)
		}
	}
}
