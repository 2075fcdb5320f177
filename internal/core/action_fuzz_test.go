package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzPrepareAction drives Prepare with arbitrary action bodies, decoded
// the way the server decodes a job submission: on an explorer that has a
// map, every body must stage a build or return an error — never panic,
// never both or neither — and a staged build's rows must be a non-empty
// part of the selection.
func FuzzPrepareAction(f *testing.F) {
	// README's four job bodies, a zoom and a filter that hit this table,
	// bad paths, bad kinds and a malformed expression.
	f.Add(`{"action":"zoom","path":[0,1]}`)
	f.Add(`{"action":"select","theme":2}`)
	f.Add(`{"action":"project","theme":1}`)
	f.Add(`{"action":"filter","expr":"hours >= 20"}`)
	f.Add(`{"action":"zoom","path":[0]}`)
	f.Add(`{"action":"filter","expr":"WorkingLongHours >= 20 AND CountryName = 'Norway'"}`)
	f.Add(`{"action":"zoom","path":[-1]}`)
	f.Add(`{"action":"zoom","path":[0,0,0,0,0,0,0,0,0]}`)
	f.Add(`{"action":"filter","expr":"WorkingLongHours >= AND ("}`)
	f.Add(`{"action":"select","theme":-1}`)
	f.Add(`{"action":"init"}`)
	f.Add(`{"action":"rollback"}`)
	f.Add(`{}`)

	tab, _, _ := laborTable(300, 61)
	e, err := NewExplorer(tab, Options{Seed: 61})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := e.SelectTheme(0); err != nil {
		f.Fatal(err)
	}
	selected := e.State().Rows.Len()
	f.Fuzz(func(t *testing.T, body string) {
		var a Action
		if json.Unmarshal([]byte(body), &a) != nil {
			return
		}
		b, err := e.Prepare(a)
		if (b == nil) == (err == nil) {
			t.Fatalf("Prepare(%+v) = %v, %v: want exactly one of a build and an error", a, b, err)
		}
		if err == nil && (b.Rows() == 0 || b.Rows() > selected) {
			t.Fatalf("Prepare(%+v) staged %d rows of a %d-row selection", a, b.Rows(), selected)
		}
		if err == nil && !a.Kind.Builds() {
			t.Fatalf("Prepare(%+v) staged a build of a kind that builds no map", a)
		}
	})
}

func TestParsePath(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"0", []int{0}, true},
		{"0,1", []int{0, 1}, true},
		{" 1 , 0 ", []int{1, 0}, true},
		{"0,,1", nil, false},
		{"0,", nil, false},
		{"x", nil, false},
	} {
		got, err := ParsePath(tc.in)
		if (err == nil) != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePath(%q) = %v, %v; want %v (ok %v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
