package store

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/store/csvdec"
	"repro/internal/store/segment"
)

// CSVOptions controls CSV parsing.
type CSVOptions struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// NullTokens are strings treated as missing values in addition to "".
	NullTokens []string
	// MaxInferRows bounds how many rows type inference examines
	// (0 means all rows).
	MaxInferRows int
	// TableName names the resulting table (default: "csv").
	TableName string
}

var defaultNullTokens = []string{"NA", "N/A", "null", "NULL", "nan", "NaN"}

// withDefaults returns a copy of the options (nil means none) with the
// defaults filled in; the caller's struct is never written to.
func (o *CSVOptions) withDefaults() CSVOptions {
	var c CSVOptions
	if o != nil {
		c = *o
	}
	if c.Comma == 0 {
		c.Comma = ','
	}
	if c.NullTokens == nil {
		c.NullTokens = defaultNullTokens
	}
	if c.TableName == "" {
		c.TableName = "csv"
	}
	return c
}

// ReadCSV parses a CSV stream with a header row into a typed table.
// Column types are inferred: a column whose non-null cells all parse as
// integers becomes BIGINT; all-numeric becomes DOUBLE; all true/false
// becomes BOOLEAN; anything else is VARCHAR. With MaxInferRows > 0 only
// that prefix is examined and a later cell that does not parse is an
// error.
//
// The stream is read to its end first, then decoded by the one ingest
// decoder (package csvdec): in parallel blocks, each cell parsed once
// under a schema speculated from the start of the input, and a second
// time only if a later cell contradicts it. The table owns exactly its
// data: columns are sized from the final row count and a dictionary
// entry is a copy made when the value is first met, so nothing of the
// input stays reachable.
func ReadCSV(r io.Reader, opts *CSVOptions) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading CSV: %w", err)
	}
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	return readCSV(open, opts.withDefaults())
}

// ReadCSVFile is ReadCSV over a file, streamed block by block rather
// than read whole (a pipe or device, which cannot be opened once per
// pass, is read whole like any stream); the table is named after the
// file unless opts.TableName says otherwise.
func ReadCSVFile(path string, opts *CSVOptions) (*Table, error) {
	o := opts.withDefaults()
	if opts == nil || opts.TableName == "" {
		o.TableName = strings.TrimSuffix(filepath.Base(path), ".csv")
	}
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadCSV(f, &o)
	}
	return readCSV(func() (io.ReadCloser, error) { return os.Open(path) }, o)
}

// ingestBlockSize is the block length the decoder is asked for: small,
// so that the blocks in flight stay a few MB however many cores decode
// them. With 4 MB blocks ingest was no faster, and the heap it grew and
// dropped (~100 MB on a 2-CPU box) left the serving process paying the
// runtime's scavenger, and the page faults that follow it, on every GC
// cycle afterwards. A variable only so tests can shrink it to force
// every boundary case.
var ingestBlockSize = 256 << 10

// ingest runs the decoder over a source; o has its defaults filled in.
func ingest(open csvdec.Source, o CSVOptions, newSink func(names []string, kinds []segment.Kind) (csvdec.Sink, error)) error {
	return csvdec.Decode(open, csvdec.Options{Comma: o.Comma, NullTokens: o.NullTokens, MaxInferRows: o.MaxInferRows}, ingestBlockSize, newSink)
}

func readCSV(open csvdec.Source, o CSVOptions) (*Table, error) {
	var sink *memSink
	err := ingest(open, o, func(names []string, kinds []segment.Kind) (csvdec.Sink, error) {
		sink = &memSink{names: names, kinds: kinds, dicts: make([]*StringColumn, len(names))}
		for j, kind := range kinds {
			if kind == segment.KindString {
				sink.dicts[j] = NewStringColumn(names[j])
			}
		}
		return sink, nil
	})
	if err != nil {
		return nil, err
	}
	return sink.table(o.TableName)
}

// memSink keeps the chunks of a pass and concatenates them into
// exact-size columns once the row count is known. String cells become
// dictionary codes as their chunk arrives, so codes follow file order
// and the input blocks can be freed.
type memSink struct {
	names  []string
	kinds  []segment.Kind
	dicts  []*StringColumn // the VARCHAR columns under construction (nil for the others): dictionary first
	chunks []*csvdec.Chunk
	codes  [][][]int32 // [chunk][column], for the VARCHAR columns
	rows   int
}

func (s *memSink) Consume(c *csvdec.Chunk) error {
	codes := make([][]int32, len(c.Cols))
	for j := range c.Cols {
		if s.kinds[j] == segment.KindString {
			codes[j] = s.dicts[j].encode(c.Cols[j].Strings, c.Cols[j].Nulls)
			c.Cols[j].Strings = nil
		}
	}
	s.chunks, s.codes = append(s.chunks, c), append(s.codes, codes)
	s.rows += c.Rows
	return nil
}

func (s *memSink) Abort() { s.chunks, s.codes = nil, nil }

// encode maps cells to dictionary codes in order (0 at nulls), through
// Append's cache, which the table the column joins drops. A value new
// to the dictionary is copied, so the column never aliases the block
// the cell was cut from.
func (c *StringColumn) encode(cells []string, nulls []bool) []int32 {
	index := c.cache()
	codes := make([]int32, len(cells))
	for i, v := range cells {
		if nulls != nil && nulls[i] {
			continue
		}
		code, ok := index[v]
		if !ok {
			code, v = int32(len(c.dict)), strings.Clone(v)
			c.dict = append(c.dict, v)
			index[v] = code
		}
		codes[i] = code
	}
	return codes
}

// concat joins column j's slices across the chunks into one of exactly
// n elements, and lets go of the chunks' own.
func concat[T any](s *memSink, j int, cells func(ci int, c *segment.Cells) *[]T) []T {
	out := make([]T, 0, s.rows)
	for ci, c := range s.chunks {
		part := cells(ci, &c.Cols[j])
		out, *part = append(out, *part...), nil
	}
	return out
}

// table builds the table from the chunks consumed.
func (s *memSink) table(name string) (*Table, error) {
	t := NewTable(name)
	for j, colName := range s.names {
		// A column with no null keeps an empty null bitmap.
		nulls := NewBitmap(0)
		base := 0
		for _, c := range s.chunks {
			for i, null := range c.Cols[j].Nulls {
				if null {
					if nulls.Len() == 0 {
						nulls = NewBitmap(s.rows)
					}
					nulls.Set(base + i)
				}
			}
			base += c.Rows
		}
		var col Column
		switch s.kinds[j] {
		case segment.KindInt64:
			col = &IntColumn{colName, concat(s, j, func(_ int, c *segment.Cells) *[]int64 { return &c.Ints }), nulls}
		case segment.KindFloat64:
			col = &FloatColumn{colName, concat(s, j, func(_ int, c *segment.Cells) *[]float64 { return &c.Floats }), nulls}
		case segment.KindBool:
			vals := NewBitmap(s.rows)
			for i, v := range concat(s, j, func(_ int, c *segment.Cells) *[]bool { return &c.Bools }) {
				if v {
					vals.Set(i)
				}
			}
			col = &BoolColumn{colName, vals, nulls, s.rows}
		default:
			sc := s.dicts[j]
			sc.codes, sc.nulls = concat(s, j, func(ci int, _ *segment.Cells) *[]int32 { return &s.codes[ci][j] }), nulls
			col = sc
		}
		if err := t.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteCSV renders the table as CSV with a header row. Nulls render as
// empty cells. A single-column row whose only cell is empty is written
// as `""` rather than a blank line: encoding/csv skips blank lines on
// read, so the bare form would silently drop the row on a round trip.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	for i := 0; i < t.NumRows(); i++ {
		row := t.Row(i)
		if len(row) == 1 && row[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
