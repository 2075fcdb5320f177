package csvdec

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/store/segment"
)

// blockReader cuts a CSV stream into blocks of whole records. A newline
// ends a record when the count of quotes before it is even; in input
// encoding/csv accepts, that is exactly outside a quoted field, and in
// input it rejects the first bad record still starts on a boundary, so
// the same error is found. A quote that would open a field from its
// middle is not counted: encoding/csv rejects that record whatever
// follows, and pairing the quote with one megabytes on would buffer
// everything between to report it.
type blockReader struct {
	r       io.Reader
	sep     []byte // the delimiter
	buf     []byte // read, not yet handed out; starts on a record boundary
	scanned int    // prefix of buf already searched
	inQuote bool   // quote parity at buf[scanned]
	closed  int    // just past the last closing quote in buf[:scanned]
	end     int    // just past the last record end in buf[:scanned]
	eof     bool
}

// next returns the next block, about size bytes long, or io.EOF.
func (br *blockReader) next(size int) ([]byte, error) {
	for {
		if !br.eof && len(br.buf) < size {
			if cap(br.buf) < size {
				br.buf = append(make([]byte, 0, size), br.buf...)
			}
			n, err := io.ReadFull(br.r, br.buf[len(br.buf):size])
			br.buf = br.buf[:len(br.buf)+n]
			if br.eof = err == io.EOF || err == io.ErrUnexpectedEOF; !br.eof && err != nil {
				return nil, err
			}
		}
		for br.scanned < len(br.buf) {
			seg := br.buf[br.scanned:]
			q := bytes.IndexByte(seg, '"')
			if q >= 0 {
				seg = seg[:q]
			}
			if !br.inQuote {
				if nl := bytes.LastIndexByte(seg, '\n'); nl >= 0 {
					br.end = br.scanned + nl + 1
				}
			}
			br.scanned += len(seg)
			if q >= 0 {
				switch at := br.scanned; {
				case br.inQuote:
					br.inQuote, br.closed = false, at+1
				case at == br.closed || br.buf[at-1] == '\n' || bytes.HasSuffix(br.buf[:at], br.sep):
					br.inQuote = true // at the buffer's or a field's start, or the second quote of a ""
				}
				br.scanned++
			}
		}
		if br.eof {
			br.end = len(br.buf)
		}
		if br.end > 0 {
			break
		}
		if br.eof {
			return nil, io.EOF
		}
		size *= 2 // one record longer than the block
	}
	block, rest := br.buf[:br.end:br.end], br.buf[br.end:]
	br.buf = append(make([]byte, 0, max(size, len(rest))), rest...)
	br.scanned, br.closed, br.end = len(rest), max(br.closed-br.end, 0), 0
	return block, nil
}

// blockDecoder is the state of one block's decode, or sniff.
type blockDecoder struct {
	*decoder
	result
	maxLines     int // the block's line count: no block has more rows
	maxRows      int // stop after this many rows (0 = no limit)
	contradicted bool
}

// decode turns one block into a chunk: decoded under the schema, or
// sniffed when asked to or when a cell contradicts the schema.
func (d *decoder) decode(blk string, sniffOnly bool, maxRows int) *result {
	b := blockDecoder{decoder: d, maxRows: maxRows, maxLines: strings.Count(blk, "\n") + 1}
	if !sniffOnly {
		b.Cols = make([]segment.Cells, len(d.kinds))
		for j, kind := range d.kinds {
			switch c := &b.Cols[j]; kind {
			case segment.KindInt64:
				c.Ints = make([]int64, 0, b.maxLines)
			case segment.KindFloat64:
				c.Floats = make([]float64, 0, b.maxLines)
			case segment.KindBool:
				c.Bools = make([]bool, 0, b.maxLines)
			default:
				c.Strings = make([]string, 0, b.maxLines)
			}
		}
		if b.run(blk); !b.contradicted {
			for j := range b.Cols {
				if c := &b.Cols[j]; c.Nulls != nil {
					c.Nulls = c.Nulls[:b.Rows]
				}
			}
			return &b.result
		}
		b = blockDecoder{decoder: d, maxRows: maxRows}
	}
	b.sniff = newSniffers(len(d.names))
	b.run(blk)
	return &b.result
}

// run walks the block's records until its end, maxRows, an error or a
// contradiction.
func (b *blockDecoder) run(blk string) {
	var cr *csv.Reader // reads the current run of quoted records
	var crPos, crLine int
	for pos := 0; pos < len(blk) && (b.maxRows == 0 || b.Rows < b.maxRows); {
		next := len(blk)
		if nl := strings.IndexByte(blk[pos:], '\n'); nl >= 0 {
			next = pos + nl + 1
		}
		line := blk[pos:next]
		if strings.IndexByte(line, '"') >= 0 {
			if cr == nil {
				cr = csv.NewReader(strings.NewReader(blk[pos:]))
				cr.Comma, cr.FieldsPerRecord, cr.ReuseRecord = b.opts.Comma, len(b.names), true
				crPos, crLine = pos, b.lines
			}
			rec, err := cr.Read()
			if err != nil {
				b.err, b.errCol = shiftLines(err, crLine), -1
				return
			}
			for j, f := range rec {
				if !b.cell(j, f) {
					return
				}
			}
			next = crPos + int(cr.InputOffset())
			b.lines += strings.Count(blk[pos:next], "\n")
			b.Rows++
			pos = next
			continue
		}
		cr = nil
		b.lines++
		pos = next
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		if line == "" {
			continue // encoding/csv skips blank lines
		}
		j := 0
		for ; j < len(b.names); j++ {
			i := strings.Index(line, b.sep)
			if i < 0 {
				i = len(line)
			}
			if !b.cell(j, line[:i]) {
				return
			}
			if i == len(line) {
				break
			}
			line = line[i+len(b.sep):]
		}
		if j != len(b.names)-1 {
			b.err, b.errCol = &csv.ParseError{StartLine: b.lines, Line: b.lines, Column: 1, Err: csv.ErrFieldCount}, -1
			return
		}
		b.Rows++
	}
}

// cell takes the next cell of column j; false stops the block.
func (b *blockDecoder) cell(j int, s string) bool {
	s = strings.TrimSpace(s)
	null := b.opts.isNull(s)
	if b.sniff != nil {
		if !null {
			b.sniff[j].observe(s)
		}
		return true
	}
	c := &b.Cols[j]
	if null {
		if c.Nulls == nil {
			c.Nulls = make([]bool, b.maxLines)
		}
		c.Nulls[b.Rows] = true
	}
	var err error
	ok := true
	switch b.kinds[j] {
	case segment.KindInt64:
		var v int64
		if !null {
			v, err = strconv.ParseInt(s, 10, 64)
		}
		c.Ints = append(c.Ints, v)
	case segment.KindFloat64:
		v := math.NaN()
		if !null {
			v, err = strconv.ParseFloat(s, 64)
		}
		c.Floats = append(c.Floats, v)
	case segment.KindBool:
		var v bool
		if !null {
			if v, ok = boolCell(s); !ok && b.strict {
				v, ok = strings.EqualFold(s, "true"), true
			}
		}
		c.Bools = append(c.Bools, v)
	default:
		if ok = null || b.seen[j] || b.strict; null {
			s = ""
		}
		c.Strings = append(c.Strings, s)
	}
	if err != nil && b.strict {
		b.err, b.errCol = err, j
		return false
	}
	b.contradicted = err != nil || !ok
	return !b.contradicted
}
