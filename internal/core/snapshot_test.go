package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSnapshotCapturesTrail(t *testing.T) {
	tab, _, _ := laborTable(600, 50)
	e, err := NewExplorer(tab, Options{Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	leaf := m.Root.Leaves()[0]
	if err := e.Annotate("promising", leaf.Path...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Zoom(leaf.Path...); err != nil {
		t.Fatal(err)
	}

	snap := e.Snapshot()
	if snap.Table != "countries" || snap.Rows != 600 {
		t.Errorf("header: %+v", snap)
	}
	if len(snap.Themes) != len(e.Themes()) {
		t.Errorf("themes = %d", len(snap.Themes))
	}
	if len(snap.History) != 3 { // init, select, zoom
		t.Fatalf("history = %d", len(snap.History))
	}
	if snap.History[0].Action != "init" || snap.History[2].Action != "zoom" {
		t.Errorf("actions = %v, %v", snap.History[0].Action, snap.History[2].Action)
	}
	// Every state records an executable query; the zoom state's has a WHERE.
	if !strings.Contains(snap.History[2].Query, "WHERE") {
		t.Errorf("zoom query = %q", snap.History[2].Query)
	}
	// The select state's map carries the annotation.
	sm := snap.History[1].Map
	if sm == nil {
		t.Fatal("select state lost its map")
	}
	found := false
	var walk func(r SnapshotRegion)
	walk = func(r SnapshotRegion) {
		for _, a := range r.Annotations {
			if a == "promising" {
				found = true
			}
		}
		for _, c := range r.Children {
			walk(c)
		}
	}
	walk(sm.Root)
	if !found {
		t.Error("annotation missing from snapshot")
	}
	// Region counts in the snapshot match the live map.
	if sm.Root.Count != 600 {
		t.Errorf("root count = %d", sm.Root.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tab, _, _ := laborTable(300, 51)
	e, _ := NewExplorer(tab, Options{Seed: 51})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	data, err := e.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Table != "countries" || len(back.History) != 2 {
		t.Errorf("round trip: %+v", back)
	}
}

func TestSnapshotQueryForDoesNotMutate(t *testing.T) {
	tab, _, _ := laborTable(300, 52)
	e, _ := NewExplorer(tab, Options{Seed: 52})
	m, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Zoom(largestLeaf(m)...); err != nil {
		t.Fatal(err)
	}
	before, hist := e.Query(), e.History()
	snap := e.Snapshot()
	if e.Query() != before {
		t.Error("snapshot changed the live state")
	}
	after := e.History()
	if len(after) != len(hist) {
		t.Fatalf("snapshot changed the history: %d states, was %d", len(after), len(hist))
	}
	for i := range hist {
		if after[i] != hist[i] {
			t.Errorf("snapshot replaced history state %d", i)
		}
		if got, want := snap.History[i].Query, e.queryOf(hist[i]); got != want {
			t.Errorf("state %d: snapshot query %q, want %q", i, got, want)
		}
	}
	if snap.History[len(hist)-1].Query != before {
		t.Errorf("the current state's snapshot query %q, want %q", snap.History[len(hist)-1].Query, before)
	}
}
