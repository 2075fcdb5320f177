package store

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store/segment"
)

// The reference ingest: the reader this package shipped before the
// block-parallel decoder — encoding/csv for every record, the whole
// input materialised as [][]string, one inference pass and one build
// pass for ReadCSV, two file passes for BuildSegment. It is kept
// verbatim (its own copies of the sniffer, the null test and the kind
// mapping included) as what the
// differentials and FuzzReadCSV compare the decoder against.

type refSniffer struct {
	canInt, canFloat, canBool bool
	seen                      bool
}

func newRefSniffer() refSniffer {
	return refSniffer{canInt: true, canFloat: true, canBool: true}
}

func (ts *refSniffer) observe(s string) {
	ts.seen = true
	if ts.canInt {
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			ts.canInt = false
		}
	}
	if ts.canFloat {
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			ts.canFloat = false
		}
	}
	if ts.canBool {
		l := strings.ToLower(s)
		if l != "true" && l != "false" {
			ts.canBool = false
		}
	}
}

func (ts *refSniffer) dead() bool {
	return !ts.canInt && !ts.canFloat && !ts.canBool
}

func (ts *refSniffer) result() Type {
	switch {
	case !ts.seen:
		return String
	case ts.canBool:
		return Bool
	case ts.canInt:
		return Int64
	case ts.canFloat:
		return Float64
	default:
		return String
	}
}

func refIsNull(o *CSVOptions, s string) bool {
	if s == "" {
		return true
	}
	for _, t := range o.NullTokens {
		if s == t {
			return true
		}
	}
	return false
}

func refKindOf(t Type) segment.Kind {
	switch t {
	case Float64:
		return segment.KindFloat64
	case Int64:
		return segment.KindInt64
	case Bool:
		return segment.KindBool
	default:
		return segment.KindString
	}
}

// refCSVReader drops a leading UTF-8 byte order mark before encoding/csv
// sees the header, as the decoder does.
func refCSVReader(r io.Reader, opts *CSVOptions) *csv.Reader {
	br := bufio.NewReader(r)
	if bom, _ := br.Peek(3); string(bom) == "\xef\xbb\xbf" {
		br.Discard(len(bom)) // the bytes Peek holds: cannot fail
	}
	cr := csv.NewReader(br)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	return cr
}

func refCSVHeader(cr *csv.Reader) ([]string, error) {
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("store: reading CSV header: %w", err)
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
		if names[i] == "" {
			names[i] = fmt.Sprintf("col%d", i)
		}
	}
	return names, nil
}

func refOptions(opts *CSVOptions) *CSVOptions {
	c := CSVOptions{}
	if opts != nil {
		c = *opts
	}
	if c.NullTokens == nil {
		c.NullTokens = []string{"NA", "N/A", "null", "NULL", "nan", "NaN"}
	}
	return &c
}

func refReadCSV(r io.Reader, opts *CSVOptions) (*Table, error) {
	opts = refOptions(opts)
	name := opts.TableName
	if name == "" {
		name = "csv"
	}
	cr := refCSVReader(r, opts)
	names, err := refCSVHeader(cr)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: reading CSV row %d: %w", len(rows)+2, err)
		}
		cp := make([]string, len(rec))
		copy(cp, rec)
		rows = append(rows, cp)
	}
	types := refInferTypes(rows, len(names), opts)
	t := NewTable(name)
	for j, colName := range names {
		col, err := refBuildColumn(colName, types[j], rows, j, opts)
		if err != nil {
			return nil, err
		}
		if err := t.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func refInferTypes(rows [][]string, ncols int, opts *CSVOptions) []Type {
	types := make([]Type, ncols)
	limit := len(rows)
	if opts.MaxInferRows > 0 && opts.MaxInferRows < limit {
		limit = opts.MaxInferRows
	}
	for j := 0; j < ncols; j++ {
		ts := newRefSniffer()
		for i := 0; i < limit; i++ {
			if j >= len(rows[i]) {
				continue
			}
			s := strings.TrimSpace(rows[i][j])
			if refIsNull(opts, s) {
				continue
			}
			ts.observe(s)
			if ts.dead() {
				break
			}
		}
		types[j] = ts.result()
	}
	return types
}

func refBuildColumn(name string, typ Type, rows [][]string, j int, opts *CSVOptions) (Column, error) {
	cell := func(i int) (string, bool) {
		if j >= len(rows[i]) {
			return "", false
		}
		s := strings.TrimSpace(rows[i][j])
		if refIsNull(opts, s) {
			return "", false
		}
		return s, true
	}
	switch typ {
	case Int64:
		c := NewIntColumn(name)
		for i := range rows {
			s, ok := cell(i)
			if !ok {
				c.AppendNull()
				continue
			}
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("store: column %s row %d: %w", name, i, err)
			}
			c.Append(v)
		}
		return c, nil
	case Float64:
		c := NewFloatColumn(name)
		for i := range rows {
			s, ok := cell(i)
			if !ok {
				c.AppendNull()
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("store: column %s row %d: %w", name, i, err)
			}
			c.Append(v)
		}
		return c, nil
	case Bool:
		c := NewBoolColumn(name)
		for i := range rows {
			s, ok := cell(i)
			if !ok {
				c.AppendNull()
				continue
			}
			c.Append(strings.EqualFold(s, "true"))
		}
		return c, nil
	default:
		c := NewStringColumn(name)
		for i := range rows {
			s, ok := cell(i)
			if !ok {
				c.AppendNull()
				continue
			}
			c.Append(s)
		}
		return c, nil
	}
}

func refBuildSegment(csvPath, segPath string, opts *SegmentBuildOptions) (int64, error) {
	if opts == nil {
		opts = &SegmentBuildOptions{}
	}
	copts := refOptions(&opts.CSV)

	// Pass 1: infer the schema.
	names, types, err := refSniffCSVFile(csvPath, copts)
	if err != nil {
		return 0, err
	}
	schema := make([]segment.ColumnSpec, len(names))
	for i, n := range names {
		schema[i] = segment.ColumnSpec{Name: n, Kind: refKindOf(types[i])}
	}

	// Pass 2: stream rows into pages.
	f, err := os.Open(csvPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	cr := refCSVReader(f, copts)
	if _, err := cr.Read(); err != nil { // header, validated in pass 1
		return 0, fmt.Errorf("store: reading CSV header: %w", err)
	}
	w, err := segment.NewWriter(segPath, schema, &segment.WriterOptions{RowsPerPage: opts.RowsPerPage})
	if err != nil {
		return 0, err
	}
	var rows int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Abort()
			return 0, fmt.Errorf("store: reading CSV row %d: %w", rows+2, err)
		}
		for j := range schema {
			var s string
			ok := false
			if j < len(rec) {
				s = strings.TrimSpace(rec[j])
				ok = !refIsNull(copts, s)
			}
			if !ok {
				w.AppendNull(j)
				continue
			}
			switch types[j] {
			case Int64:
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					w.Abort()
					return 0, fmt.Errorf("store: column %s row %d: %w", names[j], rows, err)
				}
				w.AppendInt(j, v)
			case Float64:
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					w.Abort()
					return 0, fmt.Errorf("store: column %s row %d: %w", names[j], rows, err)
				}
				w.AppendFloat(j, v)
			case Bool:
				w.AppendBool(j, strings.EqualFold(s, "true"))
			default:
				w.AppendString(j, s)
			}
		}
		if err := w.EndRow(); err != nil {
			w.Abort()
			return 0, err
		}
		rows++
	}
	if _, err := w.Finish(); err != nil {
		return 0, err
	}
	return rows, nil
}

func refSniffCSVFile(path string, opts *CSVOptions) ([]string, []Type, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	cr := refCSVReader(f, opts)
	names, err := refCSVHeader(cr)
	if err != nil {
		return nil, nil, err
	}
	sniffers := make([]refSniffer, len(names))
	for i := range sniffers {
		sniffers[i] = newRefSniffer()
	}
	row := 0
	for {
		if opts.MaxInferRows > 0 && row >= opts.MaxInferRows {
			break
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading CSV row %d: %w", row+2, err)
		}
		allDead := true
		for j := range sniffers {
			if j >= len(rec) {
				continue
			}
			s := strings.TrimSpace(rec[j])
			if !refIsNull(opts, s) {
				sniffers[j].observe(s)
			}
			if !sniffers[j].dead() || !sniffers[j].seen {
				allDead = false
			}
		}
		row++
		if allDead && len(sniffers) > 0 {
			// Every column is already pinned to String; further rows
			// cannot change the schema.
			break
		}
	}
	types := make([]Type, len(names))
	for i := range sniffers {
		types[i] = sniffers[i].result()
	}
	return names, types, nil
}

// assertTablesIdentical fails unless got equals want in everything
// ingest decides: name, column names and types, every null flag and
// value (floats by bit pattern), and the dictionaries' order.
func assertTablesIdentical(t testing.TB, got, want *Table) {
	t.Helper()
	if got.Name() != want.Name() || got.NumRows() != want.NumRows() || !reflect.DeepEqual(got.Schema(), want.Schema()) {
		t.Fatalf("table %q %d rows [%s], want %q %d rows [%s]",
			got.Name(), got.NumRows(), got.Schema(), want.Name(), want.NumRows(), want.Schema())
	}
	for ci := 0; ci < want.NumCols(); ci++ {
		g, w := got.Column(ci), want.Column(ci)
		if g.Len() != w.Len() || g.NullCount() != w.NullCount() {
			t.Fatalf("column %s: %d rows %d nulls, want %d rows %d nulls", w.Name(), g.Len(), g.NullCount(), w.Len(), w.NullCount())
		}
		if ws, ok := w.(*StringColumn); ok {
			if gs := g.(*StringColumn); !reflect.DeepEqual(gs.Dict(), ws.Dict()) && len(ws.Dict())+len(gs.Dict()) > 0 {
				t.Fatalf("column %s: dictionary %q, want %q", w.Name(), gs.Dict(), ws.Dict())
			}
		}
		for r := 0; r < w.Len(); r++ {
			if g.IsNull(r) != w.IsNull(r) {
				t.Fatalf("column %s row %d: null %v, want %v", w.Name(), r, g.IsNull(r), w.IsNull(r))
			}
			if math.Float64bits(g.Float(r)) != math.Float64bits(w.Float(r)) || g.StringAt(r) != w.StringAt(r) {
				t.Fatalf("column %s row %d: %q, want %q", w.Name(), r, g.StringAt(r), w.StringAt(r))
			}
			if ws, ok := w.(*StringColumn); ok && g.(*StringColumn).Code(r) != ws.Code(r) {
				t.Fatalf("column %s row %d: code %d, want %d", w.Name(), r, g.(*StringColumn).Code(r), ws.Code(r))
			}
		}
	}
}
