package analysis

import (
	"bytes"
	"go/token"
	"testing"
)

// TestWriteJSONSchema pins the -json wire shape byte for byte: editor
// and CI integrations parse these field names, so any change here must
// be deliberate.
func TestWriteJSONSchema(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/jobs/pool.go", Line: 42, Column: 7},
			Analyzer: "lockcheck",
			Message:  "return while holding p.mu",
		},
		{
			Pos:        token.Position{Filename: "internal/cluster/fasterpam.go", Line: 311, Column: 3},
			Analyzer:   "hotpath",
			Message:    "hot path: calls non-hot RowInto",
			Suppressed: true,
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/jobs/pool.go",
    "line": 42,
    "col": 7,
    "analyzer": "lockcheck",
    "message": "return while holding p.mu",
    "suppressed": false
  },
  {
    "file": "internal/cluster/fasterpam.go",
    "line": 311,
    "col": 3,
    "analyzer": "hotpath",
    "message": "hot path: calls non-hot RowInto",
    "suppressed": true
  }
]
`
	if got := buf.String(); got != want {
		t.Errorf("schema drift:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteJSONEmpty: no findings must still be a valid JSON array.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty output = %q, want %q", got, "[]\n")
	}
}
