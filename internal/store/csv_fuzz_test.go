package store

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV drives the CSV ingestion path — the main untrusted-input
// parser — with arbitrary bytes: it must return a table or an error,
// never panic, and an accepted table must be internally consistent and
// survive a write/re-read round trip. It is differential: at the real
// block size and at one of a few bytes (drawn from the input, so block
// boundaries fall everywhere), the decoder accepts exactly what the
// reference reader (ingest_ref_test.go) accepts, and then with equal
// names, types, nulls, values and dictionary order.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b,c\n1,2,3\n4,5,6\n"))
	f.Add([]byte("x\ntrue\nfalse\nNA\n"))
	f.Add([]byte("n,s\n1,hello\n2,\"quoted,comma\"\n"))
	f.Add([]byte("v\n1.5\n2.25\nNaN\n"))
	f.Add([]byte(",,\n,,\n"))
	f.Add([]byte("h\n\xff\xfe\n"))
	f.Add([]byte("a;b\n1;2\n"))
	f.Add([]byte("\xef\xbb\xbf\"a\",b\n1,2.5\n"))
	for _, tc := range ingestCases {
		if tc.opts == nil {
			f.Add([]byte(tc.data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("bounding parse cost")
		}
		want, wantErr := refReadCSV(bytes.NewReader(data), nil)
		tbl, err := ReadCSV(bytes.NewReader(data), nil)
		var small *Table
		var smallErr error
		withIngest(t, 1+len(data)%61, 3, func() { small, smallErr = ReadCSV(bytes.NewReader(data), nil) })
		if (err == nil) != (wantErr == nil) || (smallErr == nil) != (wantErr == nil) {
			t.Fatalf("reference: %v\ndecoder: %v\ndecoder, %d-byte blocks: %v", wantErr, err, 1+len(data)%61, smallErr)
		}
		if err != nil {
			return
		}
		assertTablesIdentical(t, tbl, want)
		assertTablesIdentical(t, small, want)
		n := tbl.NumRows()
		for _, name := range tbl.ColumnNames() {
			col := tbl.ColumnByName(name)
			if col == nil {
				t.Fatalf("accepted table misses its own column %q", name)
			}
			if col.Len() != n {
				t.Fatalf("column %q has %d rows, table has %d", name, col.Len(), n)
			}
		}
		// Round trip: what we serialize must parse again with the same
		// shape. (Types may legitimately differ — an all-null VARCHAR can
		// re-infer — but row/column counts must hold.)
		var buf strings.Builder
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatalf("writing accepted table: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(buf.String()), nil)
		if err != nil {
			t.Fatalf("re-reading written table: %v\ncsv:\n%s", err, buf.String())
		}
		if back.NumRows() != n || back.NumCols() != tbl.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				n, tbl.NumCols(), back.NumRows(), back.NumCols())
		}
	})
}
