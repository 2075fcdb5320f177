package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
)

// ColumnSpec declares one column of a segment under construction.
type ColumnSpec struct {
	Name string
	Kind Kind
}

// WriterOptions tunes segment construction.
type WriterOptions struct {
	// RowsPerPage is the page granularity (default DefaultRowsPerPage).
	RowsPerPage int
}

// Writer builds a segment file row by row with bounded memory: it
// buffers one page per column and flushes every full row group, so the
// resident footprint is O(columns × RowsPerPage) regardless of how
// many rows stream through.
//
// Usage: append exactly one value (or null) per column, then EndRow —
// or whole runs of rows column-wise with AppendRows; Finish seals the
// file. Abort discards a partial file.
type Writer struct {
	f    *os.File
	w    *bufio.Writer
	path string
	off  int64
	rpp  int
	rows int64
	cols []*colWriter
	done bool
}

// colWriter buffers the current page of one column.
type colWriter struct {
	spec  ColumnSpec
	meta  ColumnMeta
	count int // values appended in the current page

	floats []float64 // KindFloat64
	ints   []int64   // KindInt64
	codes  []int32   // KindString
	bits   []uint64  // KindBool values
	nulls  []uint64  // null bitmap for the current page
	nnulls int

	// String dictionary (first-appearance order, as StringColumn).
	dict  []string
	index map[string]int32
}

// NewWriter creates path and returns a writer for the given schema.
func NewWriter(path string, schema []ColumnSpec, opts *WriterOptions) (*Writer, error) {
	rpp := DefaultRowsPerPage
	if opts != nil && opts.RowsPerPage > 0 {
		rpp = opts.RowsPerPage
	}
	seen := make(map[string]bool, len(schema))
	for _, s := range schema {
		if s.Kind >= numKinds {
			return nil, fmt.Errorf("segment: column %q has unknown kind %d", s.Name, s.Kind)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("segment: duplicate column %q", s.Name)
		}
		seen[s.Name] = true
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f:    f,
		w:    bufio.NewWriterSize(f, 1<<20),
		path: path,
		rpp:  rpp,
	}
	for _, s := range schema {
		cw := &colWriter{spec: s, meta: ColumnMeta{Name: s.Name, Kind: s.Kind}}
		if s.Kind == KindString {
			cw.index = make(map[string]int32)
		}
		w.cols = append(w.cols, cw)
	}
	if err := w.write([]byte(Magic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

func (w *Writer) write(b []byte) error {
	n, err := w.w.Write(b)
	w.off += int64(n)
	return err
}

// NumCols returns the number of columns.
func (w *Writer) NumCols() int { return len(w.cols) }

// AppendFloat appends a non-null float to column ci.
func (w *Writer) AppendFloat(ci int, v float64) {
	c := w.cols[ci]
	c.floats = append(c.floats, v)
	c.count++
}

// AppendInt appends a non-null integer to column ci.
func (w *Writer) AppendInt(ci int, v int64) {
	c := w.cols[ci]
	c.ints = append(c.ints, v)
	c.count++
}

// AppendString appends a non-null string to column ci.
func (w *Writer) AppendString(ci int, v string) {
	c := w.cols[ci]
	c.codes = append(c.codes, c.code(v))
	c.count++
}

// code returns v's dictionary code, entering a copy of v when it is
// new, so the dictionary never pins a buffer v was cut from.
func (c *colWriter) code(v string) int32 {
	code, ok := c.index[v]
	if !ok {
		code, v = int32(len(c.dict)), strings.Clone(v)
		c.dict = append(c.dict, v)
		c.index[v] = code
	}
	return code
}

// AppendBool appends a non-null boolean to column ci.
func (w *Writer) AppendBool(ci int, v bool) {
	c := w.cols[ci]
	c.setBit(&c.bits, c.count, v)
	c.count++
}

// AppendNull appends a missing value to column ci.
func (w *Writer) AppendNull(ci int) {
	c := w.cols[ci]
	switch c.spec.Kind {
	case KindFloat64:
		c.floats = append(c.floats, math.NaN())
	case KindInt64:
		c.ints = append(c.ints, 0)
	case KindString:
		c.codes = append(c.codes, 0)
	case KindBool:
		c.setBit(&c.bits, c.count, false)
	}
	c.setBit(&c.nulls, c.count, true)
	c.nnulls++
	c.count++
}

func (c *colWriter) setBit(words *[]uint64, i int, v bool) {
	w := i >> 6
	for len(*words) <= w {
		*words = append(*words, 0)
	}
	if v {
		(*words)[w] |= 1 << uint(i&63)
	}
}

// Cells is a run of consecutive cells of one column, held in the slice
// of the column's kind. Nulls flags the missing cells (nil: none); their
// slots hold the placeholder AppendNull stores (NaN, 0, false, "").
type Cells struct {
	Floats  []float64
	Ints    []int64
	Bools   []bool
	Strings []string
	Nulls   []bool
}

// AppendRows appends n complete rows given column-wise, cols[ci] holding
// column ci's n cells — the form a block-at-a-time producer has in
// hand. It is EndRow included: rows go out a row group at a time.
func (w *Writer) AppendRows(n int, cols []Cells) error {
	for lo := 0; lo < n; {
		hi := min(n, lo+w.rpp-int(w.rows%int64(w.rpp)))
		for ci, c := range w.cols {
			switch in := &cols[ci]; c.spec.Kind {
			case KindFloat64:
				c.floats = append(c.floats, in.Floats[lo:hi]...)
			case KindInt64:
				c.ints = append(c.ints, in.Ints[lo:hi]...)
			case KindBool:
				for i, v := range in.Bools[lo:hi] {
					c.setBit(&c.bits, c.count+i, v)
				}
			case KindString:
				for i, v := range in.Strings[lo:hi] {
					var code int32 // 0 at a null
					if in.Nulls == nil || !in.Nulls[lo+i] {
						code = c.code(v)
					}
					c.codes = append(c.codes, code)
				}
			}
			if in := cols[ci].Nulls; in != nil {
				for i, null := range in[lo:hi] {
					if null {
						c.setBit(&c.nulls, c.count+i, true)
						c.nnulls++
					}
				}
			}
			c.count += hi - lo
		}
		if err := w.endRows(hi - lo); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// EndRow completes one row: every column must have received exactly
// one value since the previous EndRow. Full row groups flush to disk.
func (w *Writer) EndRow() error { return w.endRows(1) }

// endRows completes n rows that fit the current row group.
func (w *Writer) endRows(n int) error {
	if w.done {
		return fmt.Errorf("segment: writer already finished")
	}
	w.rows += int64(n)
	want := int((w.rows-1)%int64(w.rpp)) + 1
	for _, c := range w.cols {
		if c.count != want {
			return fmt.Errorf("segment: column %q has %d values at row %d (want %d)",
				c.spec.Name, c.count, w.rows, want)
		}
	}
	if want == w.rpp {
		return w.flushGroup()
	}
	return nil
}

// flushGroup writes the buffered page of every column.
func (w *Writer) flushGroup() error {
	for _, c := range w.cols {
		if err := w.flushPage(c); err != nil {
			return err
		}
	}
	return nil
}

// flushPage writes column c's buffered page payload (plus its null
// bitmap when the page has nulls) and records the directory entry.
func (w *Writer) flushPage(c *colWriter) error {
	rows := c.count
	if rows == 0 {
		return nil
	}
	info := PageInfo{Off: w.off, Rows: rows, NullCount: c.nnulls}
	info.Min, info.Max = math.NaN(), math.NaN()

	var buf []byte
	stat := func(v float64) {
		if math.IsNaN(info.Min) || v < info.Min {
			info.Min = v
		}
		if math.IsNaN(info.Max) || v > info.Max {
			info.Max = v
		}
	}
	isNull := func(i int) bool {
		// The null words only extend as far as the last null appended.
		return i>>6 < len(c.nulls) && c.nulls[i>>6]&(1<<uint(i&63)) != 0
	}
	switch c.spec.Kind {
	case KindFloat64:
		buf = make([]byte, 0, rows*8)
		for i, v := range c.floats {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if !isNull(i) {
				stat(v)
			}
		}
	case KindInt64:
		buf = make([]byte, 0, rows*8)
		for i, v := range c.ints {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			if !isNull(i) {
				stat(float64(v))
			}
		}
	case KindString:
		buf = make([]byte, 0, rows*4)
		for i, v := range c.codes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			if !isNull(i) {
				stat(float64(v))
			}
		}
	case KindBool:
		buf = make([]byte, bitmapLen(rows))
		for i, word := range c.bits {
			if i*8 < len(buf) {
				binary.LittleEndian.PutUint64(buf[i*8:], word)
			}
		}
		for i := 0; i < rows; i++ {
			if !isNull(i) {
				v := 0.0
				if c.bits[i>>6]&(1<<uint(i&63)) != 0 {
					v = 1
				}
				stat(v)
			}
		}
	}
	info.Len = int64(len(buf))
	if err := w.write(buf); err != nil {
		return err
	}
	if c.nnulls > 0 {
		info.NullOff = w.off
		info.NullLen = bitmapLen(rows)
		nb := make([]byte, info.NullLen)
		for i, word := range c.nulls {
			if i*8 < len(nb) {
				binary.LittleEndian.PutUint64(nb[i*8:], word)
			}
		}
		if err := w.write(nb); err != nil {
			return err
		}
	}
	c.meta.Pages = append(c.meta.Pages, info)

	c.count = 0
	c.nnulls = 0
	c.floats = c.floats[:0]
	c.ints = c.ints[:0]
	c.codes = c.codes[:0]
	c.bits = c.bits[:0]
	c.nulls = c.nulls[:0]
	return nil
}

// Finish flushes the partial row group, writes the dictionaries,
// footer and trailer, and closes the file.
func (w *Writer) Finish() (*Footer, error) {
	if w.done {
		return nil, fmt.Errorf("segment: writer already finished")
	}
	w.done = true
	if w.rows%int64(w.rpp) != 0 {
		if err := w.flushGroup(); err != nil {
			w.abort()
			return nil, err
		}
	}
	footer := &Footer{NumRows: w.rows, RowsPerPage: w.rpp}
	for _, c := range w.cols {
		if c.spec.Kind == KindString {
			c.meta.DictOff = w.off
			c.meta.DictCard = len(c.dict)
			var db []byte
			for _, v := range c.dict {
				db = binary.LittleEndian.AppendUint32(db, uint32(len(v)))
				db = append(db, v...)
			}
			c.meta.DictLen = int64(len(db))
			if err := w.write(db); err != nil {
				w.abort()
				return nil, err
			}
		} else {
			// Keep the (unused) dictionary offset in bounds for the
			// reader's directory validation.
			c.meta.DictOff = int64(len(Magic))
		}
		footer.Cols = append(footer.Cols, c.meta)
	}
	fb := footer.encode()
	footerOff := w.off
	if err := w.write(fb); err != nil {
		w.abort()
		return nil, err
	}
	var trailer []byte
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(footerOff))
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(len(fb)))
	trailer = binary.LittleEndian.AppendUint32(trailer, footerCRC(fb))
	trailer = append(trailer, Magic...)
	if err := w.write(trailer); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.w.Flush(); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.path)
		return nil, err
	}
	return footer, nil
}

// Abort discards the partial file. Safe to call after Finish (no-op).
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.abort()
}

func (w *Writer) abort() {
	w.f.Close()
	os.Remove(w.path)
}
