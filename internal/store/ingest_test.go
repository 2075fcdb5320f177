package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/store/csvdec"
	"repro/internal/store/segment"
)

// withIngest runs f with the block size and worker count forced.
func withIngest(t testing.TB, blockSize, workers int, f func()) {
	t.Helper()
	oldSize, oldProcs := ingestBlockSize, runtime.GOMAXPROCS(workers)
	ingestBlockSize = blockSize
	defer func() {
		ingestBlockSize = oldSize
		runtime.GOMAXPROCS(oldProcs)
	}()
	f()
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstReference ingests data through ReadCSV, ReadCSVFile and
// BuildSegment and through the reference reader, and fails on any
// difference: acceptance, the table cell for cell, the .seg byte for
// byte, and the error text (both paths are one decoder now, so both
// report a bad record or cell the way the reference BuildSegment does:
// the first in row order).
func checkAgainstReference(t testing.TB, data []byte, opts *CSVOptions, rowsPerPage int) {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(csvPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sopts := &SegmentBuildOptions{RowsPerPage: rowsPerPage}
	if opts != nil {
		sopts.CSV = *opts
	}
	refSeg, gotSeg := filepath.Join(dir, "ref.seg"), filepath.Join(dir, "got.seg")
	wantRows, wantSegErr := refBuildSegment(csvPath, refSeg, sopts)
	want, wantErr := refReadCSV(bytes.NewReader(data), opts)
	if (wantErr == nil) != (wantSegErr == nil) {
		t.Fatalf("the references disagree: ReadCSV %v, BuildSegment %v", wantErr, wantSegErr)
	}

	got, err := ReadCSV(bytes.NewReader(data), opts)
	if errString(err) != errString(wantSegErr) {
		t.Fatalf("ReadCSV error %q, reference %q", errString(err), errString(wantSegErr))
	}
	fromFile, ferr := ReadCSVFile(csvPath, opts)
	if errString(ferr) != errString(err) {
		t.Fatalf("ReadCSVFile error %q, ReadCSV %q", errString(ferr), errString(err))
	}
	rows, serr := BuildSegment(csvPath, gotSeg, sopts)
	if errString(serr) != errString(wantSegErr) {
		t.Fatalf("BuildSegment error %q, reference %q", errString(serr), errString(wantSegErr))
	}
	if err != nil {
		if _, statErr := os.Stat(gotSeg); !os.IsNotExist(statErr) {
			t.Fatalf("failed build left the segment file behind: %v", statErr)
		}
		return
	}
	assertTablesIdentical(t, got, want)
	if opts == nil || opts.TableName == "" {
		fromFile.SetName(want.Name())
	}
	assertTablesIdentical(t, fromFile, want)
	if rows != wantRows {
		t.Fatalf("BuildSegment wrote %d rows, reference %d", rows, wantRows)
	}
	gotBytes, err := os.ReadFile(gotSeg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(refSeg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("segment differs from the reference's (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}
}

var ingestCases = []struct {
	name string
	data string
	opts *CSVOptions
}{
	{name: "plain", data: "id,score,flag,label\n1,1.5,true,aa\n2,2.5,false,bb\n3,,TRUE,cc\n4,4.5,False,aa\n"},
	{name: "quoted delimiter", data: "n,s\n1,hello\n2,\"quoted,comma\"\n3,plain\n4,\"a,b,c,d,e,f,g,h,i,j,k,l,m\"\n5,x\n"},
	{name: "quoted newline", data: "n,s\n1,\"two\nlines\"\n2,\"three\n\nlines, here\"\n3,z\n4,\"\n\"\n"},
	{name: "escaped quotes", data: "n,s\n1,\"say \"\"hi\"\" twice\"\n2,\"\"\"\"\n3,\"\"\n4,\"a\"\"\nb\"\"\"\n5,tail\n"},
	{name: "quoted run then plain", data: "a,b\n\"1\",\"x\"\n\"2\",\"y\"\n3,z\n\"4\",w\n5,v\n"},
	{name: "crlf", data: "a,b\r\n1,x\r\n2,\"q\r\nr\"\r\n3,z\r\n"},
	{name: "lone cr and cr before eof", data: "a,b\n1,x\ry\n2,z\r"},
	{name: "blank lines", data: "\n\na,b\n\n1,2\n\r\n\n3,4\n\n\n"},
	{name: "no trailing newline", data: "a,b\n1,2\n3,4"},
	{name: "no trailing newline quoted", data: "a,b\n1,2\n3,\"4\""},
	{name: "header only", data: "a,b,c\n"},
	{name: "header only no newline", data: "a,b,c"},
	{name: "quoted multi-line header", data: "\"a\nb\",\"c,d\"\n1,2\n3,4\n"},
	{name: "blank header names", data: ",x,\n1,2,3\n"},
	{name: "empty", data: ""},
	{name: "only blank lines", data: "\n\n\r\n\n"},
	{name: "ragged short row late", data: "a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n11\n12,13\n"},
	{name: "ragged long row late", data: "a,b\n1,2\n3,4\n5,6\n7,8\n9,10,11\n"},
	{name: "ragged quoted row late", data: "a,b\n1,2\n3,4\n\n5,6\n7,\"8\",9\n"},
	{name: "bare quote late", data: "a,b\n1,2\n3,4\n5,6\n7,8\n9,1\"0\n11,12\n"},
	{name: "stray quote then a quote-free tail", data: "a,b\n1,5\"\n" + strings.Repeat("2,3\n", 40)},
	{name: "two stray quotes then a quoted tail", data: "a,b\n1,5\"\"x\n" + strings.Repeat("2,\"3\"\n", 40)},
	{name: "unterminated quote", data: "a,b\n1,2\n3,\"4\n5,6\n7,8\n"},
	{name: "text after closing quote", data: "a,b\n1,2\n3,\"4\"x\n5,6\n"},
	{name: "error after contradiction", data: "a,b\n1,2\n3,4\n5,6\nx,7\n8,9\n10,11\n12\n"},
	{name: "int to float late", data: "v,w\n1,a\n2,b\n3,c\n4,d\n5,e\n6,f\n7.5,g\n8,h\n"},
	{name: "int to string late", data: "v,w\n1,a\n2,b\n3,c\n4,d\n5,e\n6,f\nseven,g\n8,h\n"},
	{name: "float to string late", data: "v\n1.5\n2.5\n3.5\n4.5\n5.5\n6.5\n7.5\nx\n"},
	{name: "bool to string late", data: "v\ntrue\nfalse\ntrue\nfalse\ntrue\nfalse\nmaybe\n"},
	{name: "bool to int is string", data: "v\ntrue\nfalse\ntrue\nfalse\ntrue\nfalse\n1\n"},
	{name: "int overflow to float", data: "v\n1\n2\n3\n4\n5\n6\n7\n99999999999999999999\n"},
	{name: "all null first blocks", data: "v,w\n,x\n,x\nNA,x\n,x\n,x\n,x\n,x\n,x\n3,x\n4,x\n"},
	{name: "all null first blocks then string", data: "v,w\n,1\n,2\n,3\n,4\n,5\n,6\n,7\n,8\nzz,9\n"},
	{name: "all null throughout", data: "v,w\n,1\nNA,2\nnull,3\n,4\n,5\n,6\n"},
	{name: "two contradictions", data: "a,b,c\n1,1,x\n2,2,x\n3,3,x\n4,4,x\n5.5,5,x\n6,6,x\n7,7,x\n8,8,x\n9,nine,x\n"},
	{name: "tab", data: "a\tb\n1\tx y\n2\t\"q\tr\"\n3\tz\n", opts: &CSVOptions{Comma: '\t'}},
	{name: "semicolon", data: "a;b\n1;x,y\n2;z\n", opts: &CSVOptions{Comma: ';'}},
	{name: "multi-byte comma", data: "a→b→c\n1→x→2.5\n2→\"q→r\"→3.5\n3→é→4.5\n", opts: &CSVOptions{Comma: '→'}},
	{name: "comma is quote", data: "a,b\n1,2\n", opts: &CSVOptions{Comma: '"'}},
	{name: "comma is newline", data: "a,b\n1,2\n", opts: &CSVOptions{Comma: '\n'}},
	{name: "comma is cr", data: "a,b\n1,2\n", opts: &CSVOptions{Comma: '\r'}},
	{name: "comma is invalid rune", data: "a,b\n1,2\n", opts: &CSVOptions{Comma: 0xD800}},
	{name: "comma is replacement char", data: "a,b\n1,2\n", opts: &CSVOptions{Comma: 0xFFFD}},
	{name: "default null tokens", data: "v,s\n1,NA\nNA,N/A\nN/A,a\nnull,NULL\nNULL,b\nnan,nan\nNaN,NaN\n2,na\n"},
	{name: "custom null tokens", data: "v,s\n1,a\n-,b\n?,-\nNA,NA\n", opts: &CSVOptions{NullTokens: []string{"-", "?"}}},
	{name: "nan is a float without the default tokens", data: "v\n1.5\nNaN\nnan\n-Inf\n", opts: &CSVOptions{NullTokens: []string{}}},
	{name: "padded cells", data: "a , b\n 1 ,  x  \n\t2\t, y\n3,\" z \"\n 4, w \n  , NA \n"},
	{name: "invalid utf-8", data: "h,\xff\n\xff\xfe,1\nok,2\n\xc3,3\n\"\xfe\",4\n"},
	{name: "number forms", data: "a,b,c,d,e,f\n-0,+5,1e3,Inf,0x1p-2,1_000\n0,-5,1E-3,-inf,0x10,2\n-0,5,.5,+Infinity,1.,3\n"},
	{name: "negative zero in an int column that turns float", data: "v\n-0\n1\n2\n3\n4\n5\n6\n7\n0.5\n"},
	{name: "bool spellings", data: "b\nTrue\nFALSE\ntRuE\n"},
	{name: "long s is not a bool", data: "b\ntrue\nfalſe\n"},
	{name: "kelvin is not a bool", data: "b\ntrue\nK\n"},
	{name: "one long record", data: "a,b\n1," + strings.Repeat("x", 300) + "\n2,\"" + strings.Repeat("y\n", 150) + "\"\n3,z\n"},
	{name: "max infer rows ok", data: "v,w\n1,a\n2,b\n3,c\n4,d\n5,e\n6,f\n", opts: &CSVOptions{MaxInferRows: 2}},
	{name: "max infer rows later unparseable", data: "v,w\n1,a\n2,b\n3,c\n4,d\n5,e\nsix,f\n7,g\n", opts: &CSVOptions{MaxInferRows: 3}},
	{name: "max infer rows later float in int", data: "v\n1\n2\n3\n4\n5\n6.5\n", opts: &CSVOptions{MaxInferRows: 5}},
	{name: "max infer rows bool then other", data: "v\ntrue\nfalse\ntrue\nTRUE\nmaybe\n1\n", opts: &CSVOptions{MaxInferRows: 2}},
	{name: "max infer rows null prefix", data: "v\n\nNA\n\"\"\n1\n2\n", opts: &CSVOptions{MaxInferRows: 2}},
	{name: "max infer rows beyond input", data: "v\n1\n2\n", opts: &CSVOptions{MaxInferRows: 50}},
	{name: "max infer rows ragged later", data: "a,b\n1,2\n3,4\n5,6\n7,8\n9\n", opts: &CSVOptions{MaxInferRows: 1}},
	{name: "table name", data: "a\n1\n", opts: &CSVOptions{TableName: "named"}},
}

// TestIngestDifferential holds the decoder to the reference reader on
// every boundary case, with the block size shrunk until quoted fields,
// CRLFs, errors and type contradictions straddle or land beyond block
// boundaries, at 1, 2 and 7 workers.
func TestIngestDifferential(t *testing.T) {
	for _, tc := range ingestCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, blockSize := range []int{1, 16, 23, 64, 4 << 20} {
				for _, workers := range []int{1, 2, 7} {
					withIngest(t, blockSize, workers, func() {
						checkAgainstReference(t, []byte(tc.data), tc.opts, 3)
					})
					if t.Failed() {
						t.Fatalf("at block size %d, %d workers", blockSize, workers)
					}
				}
			}
		})
	}
}

// A duplicate column name is refused by whoever owns the names — the
// table or the segment writer — so only the refusal is compared.
func TestIngestDuplicateHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.csv")
	if err := os.WriteFile(path, []byte("a, a\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSVFile(path, nil); err == nil {
		t.Error("ReadCSVFile accepted a duplicate column name")
	}
	segPath := filepath.Join(filepath.Dir(path), "dup.seg")
	if _, err := BuildSegment(path, segPath, nil); err == nil {
		t.Error("BuildSegment accepted a duplicate column name")
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Errorf("refused build left the segment file behind: %v", err)
	}
}

// mixedCSV is a table of every type with nulls, quoted fields holding
// delimiters and newlines, a contradiction deep in the file (column
// "late" is integer for the first three quarters) and a
// high-cardinality string column whose dictionary order is file order.
func mixedCSV(rows int) []byte {
	var b bytes.Buffer
	b.WriteString("id,x,flag,label,late,key\r\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%g,%v,", i, float64(i)*0.25-7, i%3 == 0)
		switch i % 5 {
		case 0:
			b.WriteString("\"multi\nline, with \"\"quotes\"\"\"")
		case 1:
			b.WriteString("NA")
		default:
			fmt.Fprintf(&b, "label %d", i%7)
		}
		if i < rows*3/4 || i%2 == 0 {
			fmt.Fprintf(&b, ",%d", i)
		} else {
			fmt.Fprintf(&b, ",%d.5", i)
		}
		fmt.Fprintf(&b, ",k%05d\n", (i*7919)%rows)
	}
	return b.Bytes()
}

// TestIngestConcurrentWorkerInvariance is the pipeline under the race
// detector (make race-store): the same input at 1, 2 and 7 workers and
// three block sizes must give the reference's table and segment every
// time.
func TestIngestConcurrentWorkerInvariance(t *testing.T) {
	data := mixedCSV(3000)
	for _, blockSize := range []int{512, 4096, 4 << 20} {
		for _, workers := range []int{1, 2, 7} {
			withIngest(t, blockSize, workers, func() { checkAgainstReference(t, data, nil, 64) })
			if t.Failed() {
				t.Fatalf("at block size %d, %d workers", blockSize, workers)
			}
		}
	}
}

func TestReadCSVFileLeavesOptionsAlone(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b"} {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte("v\n1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := &CSVOptions{}
	for _, name := range []string{"a", "b"} {
		tab, err := ReadCSVFile(filepath.Join(dir, name+".csv"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Name() != name {
			t.Errorf("table read from %s.csv is named %q", name, tab.Name())
		}
	}
	if opts.TableName != "" || opts.NullTokens != nil || opts.Comma != 0 {
		t.Errorf("the caller's options were written to: %+v", *opts)
	}
}

// TestReadCSVDoesNotPinInput: a table must retain its own data, not the
// input. One unique key column and one wide constant column make the
// difference two orders of magnitude: the file is ~400 B a row, the
// table well under that (key, dictionary entry, two codes).
func TestReadCSVDoesNotPinInput(t *testing.T) {
	const rows = 20000
	var b bytes.Buffer
	b.WriteString("key,wide\n")
	wide := strings.Repeat("w", 400)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "k%07d,%s\n", i, wide)
	}
	data := b.Bytes()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tab, err := ReadCSV(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(data)
	if tab.NumRows() != rows {
		t.Fatalf("read %d rows", tab.NumRows())
	}
	if limit := int64(len(data)) / 3; retained > limit {
		t.Fatalf("table of a %d-byte CSV retains %d bytes (%d a row), want under %d", len(data), retained, retained/rows, limit)
	}
}

// TestIngestSinkErrorAbortsSegment: an error from the sink mid-file
// stops the pass, aborts the sink and leaves no partial segment.
func TestIngestSinkErrorAbortsSegment(t *testing.T) {
	dir := t.TempDir()
	csvPath, segPath := filepath.Join(dir, "in.csv"), filepath.Join(dir, "out.seg")
	if err := os.WriteFile(csvPath, mixedCSV(3000), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	withIngest(t, 2048, 3, func() {
		sink := &failingSink{failAt: 5, err: boom}
		err := ingest(func() (io.ReadCloser, error) { return os.Open(csvPath) }, (*CSVOptions)(nil).withDefaults(),
			func(names []string, kinds []segment.Kind) (_ csvdec.Sink, err error) {
				sink.segSink, err = newSegSink(segPath, names, kinds, 64)
				return sink, err
			})
		if !errors.Is(err, boom) || sink.chunks != 5 {
			t.Fatalf("after %d chunks: %v", sink.chunks, err)
		}
	})
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("sink error left the segment file behind: %v", err)
	}
}

// failingSink is a segment sink whose failAt-th chunk fails.
type failingSink struct {
	*segSink
	chunks, failAt int
	err            error
}

func (s *failingSink) Consume(c *csvdec.Chunk) error {
	if s.chunks++; s.chunks == s.failAt {
		return s.err
	}
	return s.segSink.Consume(c)
}

// TestIngestStripsBOM: a UTF-8 byte order mark before the header, as
// Excel writes it, is not part of the first column's name, on either
// sink, in a bare or a quoted name, and when a contradiction makes the
// decoder reread the file past the header: a turns from INTEGER to FLOAT
// in its last row, beyond the first block at block sizes 1 and 16.
func TestIngestStripsBOM(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&rows, "%d,x%d\n", i, i)
	}
	rows.WriteString("20.5,y\n")
	for _, header := range []string{"a,b\n", "\"a\",b\n"} {
		data := []byte("\xef\xbb\xbf" + header + rows.String())
		for _, blockSize := range []int{1, 16, 4 << 20} {
			withIngest(t, blockSize, 2, func() {
				checkAgainstReference(t, data, nil, 4)
				path := filepath.Join(t.TempDir(), "in.csv")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				segPath := filepath.Join(t.TempDir(), "out.seg")
				if _, err := BuildSegment(path, segPath, nil); err != nil {
					t.Fatal(err)
				}
				seg, err := OpenSegmentTableWith(segPath, segment.NewPoolObs(1<<20, nil))
				if err != nil {
					t.Fatal(err)
				}
				defer seg.Close()
				mem, err := ReadCSV(bytes.NewReader(data), nil)
				if err != nil {
					t.Fatal(err)
				}
				p, err := ParsePredicate("a > 1")
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []Relation{mem, seg} {
					if got := r.ColumnNames(); !slices.Equal(got, []string{"a", "b"}) {
						t.Fatalf("%T from %q at block size %d: columns %q", r, data[:8], blockSize, got)
					}
					if typ := r.Column(0).Type(); typ != Float64 {
						t.Fatalf("%T: column a is %v, want FLOAT", r, typ)
					}
					if n := len(r.Filter(p)); n != 19 {
						t.Fatalf("%T: a > 1 matches %d rows, want 19", r, n)
					}
				}
			})
		}
	}
}
