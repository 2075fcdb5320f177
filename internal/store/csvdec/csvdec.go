// Package csvdec is the one CSV decoder behind store.ReadCSV,
// store.ReadCSVFile and store.BuildSegment: bytes in, typed column
// chunks out, in file order. It knows nothing of tables or segment
// files; what becomes of the chunks is the Sink's business.
//
// A producer cuts the input into blocks at record boundaries,
// GOMAXPROCS workers decode blocks into per-column chunks, and one
// consumer hands the chunks to the sink in file order. Quote-free
// records are split on the delimiter directly; the header and any
// record containing a quote go through encoding/csv, so RFC 4180
// quoting and its errors stay the standard library's.
//
// Types are speculated, then checked: the start of the input is
// sniffed, everything is decoded under that candidate schema with the
// sniffer's own predicates as the per-cell check, and only if a later
// cell contradicts its column does the pass finish as inference only
// and a second pass decode under the now exact schema. That is sound
// because a typeSniffer's flags only ever clear.
package csvdec

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/store/segment"
)

// Options says how cells are cut and read.
type Options struct {
	// Comma is the field delimiter.
	Comma rune
	// NullTokens are the cells that are missing values, besides "".
	NullTokens []string
	// MaxInferRows > 0 infers the column types from that many rows only;
	// a later cell that does not parse under them is an error. 0 infers
	// from every row.
	MaxInferRows int
}

func (o *Options) isNull(s string) bool {
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

// Chunk is the rows of one decoded block, column-wise: Cols[j] holds
// column j's cells in the slice of its kind.
type Chunk struct {
	Rows int
	Cols []segment.Cells
}

// Sink receives the chunks of one decode pass in file order. Abort
// discards what it took: the pass hit an error or a contradiction.
type Sink interface {
	Consume(c *Chunk) error
	Abort()
}

// Source opens the input, once per pass.
type Source func() (io.ReadCloser, error)

// result is what a worker makes of one block: a chunk, or, for a block
// that was only sniffed, what its cells say about the types.
type result struct {
	Chunk
	lines  int           // lines consumed
	sniff  []typeSniffer // non-nil when sniffed instead of decoded
	err    error         // the first error, at data row Rows of the block
	errCol int           // its column, -1 for a record-level error
}

// decoder is one ingest: the input and its header, and the schema of
// the pass under way, which the pass's workers share read-only.
type decoder struct {
	open      Source
	opts      Options
	sep       string // opts.Comma in UTF-8
	blockSize int
	names     []string
	skip      int64 // where the data rows start: bytes
	line      int   // and lines into the input

	kinds []segment.Kind
	seen  []bool // the schema's sniffer met a non-null cell in the column; a cell in a column where it met none contradicts it
	// strict makes a cell that does not parse under its column's type an
	// error (false, in a BOOLEAN column) instead of a contradiction: the
	// schema is a MaxInferRows prefix's, or already exact.
	strict    bool
	inferOnly atomic.Bool // a contradiction was met: remaining blocks are only sniffed
}

// Decode decodes a CSV with a header row into the sink newSink returns
// for its column names and kinds. After a contradiction the sink is
// aborted and newSink is called again, with the exact schema, for the
// second pass. blockSize is the block length the producer aims for (a
// record longer than a block gets a block of its own size): the
// caller's constant, a parameter only so the caller's tests can shrink
// it to force every boundary case.
func Decode(open Source, o Options, blockSize int, newSink func(names []string, kinds []segment.Kind) (Sink, error)) error {
	d := &decoder{open: open, opts: o, blockSize: blockSize, strict: o.MaxInferRows > 0}
	d.sep = string(utf8.AppendRune(nil, o.Comma))
	sniff, err := d.sniffPrefix()
	for err == nil && sniff != nil {
		d.kinds, d.seen = make([]segment.Kind, len(sniff)), make([]bool, len(sniff))
		for j, ts := range sniff {
			d.kinds[j], d.seen[j] = ts.result(), ts.seen
		}
		var sink Sink
		if sink, err = newSink(d.names, d.kinds); err != nil {
			break
		}
		if sniff, err = d.pass(sniff, sink); err != nil || sniff != nil {
			sink.Abort()
		}
		d.strict = true
	}
	return err
}

// sniffPrefix reads the header and sniffs the rows the schema is
// speculated from: the first MaxInferRows rows, or else the first
// block.
func (d *decoder) sniffPrefix() ([]typeSniffer, error) {
	r, err := d.open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	br := blockReader{r: r, sep: []byte(d.sep)}
	var sniff []typeSniffer
	for rows, lines := 0, 0; sniff == nil || d.strict && rows < d.opts.MaxInferRows; {
		block, err := br.next(d.blockSize)
		if err == io.EOF && sniff != nil {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: reading CSV header: %w", err)
		}
		if sniff == nil {
			cr := csv.NewReader(bytes.NewReader(block))
			cr.Comma = d.opts.Comma
			header, err := cr.Read()
			end := len(block) // of the header, or of a block of blank lines
			if err == nil {
				end = int(cr.InputOffset())
			} else if err != io.EOF {
				return nil, fmt.Errorf("store: reading CSV header: %w", shiftLines(err, d.line))
			}
			d.skip, d.line = d.skip+int64(end), d.line+bytes.Count(block[:end], []byte("\n"))
			if err != nil {
				continue
			}
			for i, h := range header {
				if h = strings.TrimSpace(h); h == "" {
					h = fmt.Sprintf("col%d", i)
				}
				d.names = append(d.names, h)
			}
			sniff = newSniffers(len(header))
			block = block[end:]
		}
		c := d.decode(string(block), true, max(d.opts.MaxInferRows-rows, 0))
		if c.err != nil {
			return nil, d.rowError(c, rows, d.line+lines)
		}
		mergeSniffers(sniff, c.sniff)
		rows, lines = rows+c.Rows, lines+c.lines
	}
	return sniff, nil
}

// pass runs one decode pass over the data rows. At most GOMAXPROCS+2
// blocks are in flight: those queued in file order, the one the
// consumer holds and the one the producer is reading. It returns nil
// sniffers when the sink received every row, or, after a contradiction,
// the exact sniffers of the whole input: base merged with every block
// from the first contradicting one on (earlier blocks, and later ones
// that decoded cleanly, cannot change a flag).
func (d *decoder) pass(base []typeSniffer, sink Sink) ([]typeSniffer, error) {
	r, err := d.open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if _, err := io.CopyN(io.Discard, r, d.skip); err != nil {
		return nil, fmt.Errorf("store: rereading CSV: %w", err)
	}
	type job struct {
		data []byte
		done chan *result // buffered, so a worker never waits for the consumer
	}
	workers := runtime.GOMAXPROCS(0)
	work := make(chan job)
	order := make(chan job, workers) // jobs in file order; its size bounds the blocks in flight
	stop := make(chan struct{})
	d.inferOnly.Store(false)
	var readErr error
	go func() {
		defer close(order)
		defer close(work)
		br := blockReader{r: r, sep: []byte(d.sep)}
		for {
			data, err := br.next(d.blockSize)
			if err != nil {
				if err != io.EOF {
					readErr = fmt.Errorf("store: reading CSV: %w", err)
				}
				return
			}
			j := job{data, make(chan *result, 1)}
			for _, ch := range []chan job{order, work} {
				select {
				case ch <- j:
				case <-stop:
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				j.done <- d.decode(string(j.data), d.inferOnly.Load(), 0)
			}
		}()
	}
	var exact []typeSniffer
	rows, lines := 0, d.line
	for j := range order {
		if err != nil {
			continue // stopped: drain until the producer has closed
		}
		c := <-j.done
		switch {
		case c.err != nil:
			err = d.rowError(c, rows, lines)
		case c.sniff != nil:
			if exact == nil {
				exact = append(exact, base...)
				d.inferOnly.Store(true)
			}
			mergeSniffers(exact, c.sniff)
		case exact == nil:
			err = sink.Consume(&c.Chunk)
		}
		rows, lines = rows+c.Rows, lines+c.lines
		if err != nil {
			close(stop)
		}
	}
	wg.Wait()
	if err == nil {
		err = readErr
	}
	return exact, err
}

// rowError words a chunk's error for the file: rows and lines are those
// before the chunk's block.
func (d *decoder) rowError(c *result, rows, lines int) error {
	if c.errCol >= 0 {
		return fmt.Errorf("store: column %s row %d: %w", d.names[c.errCol], rows+c.Rows, c.err)
	}
	return fmt.Errorf("store: reading CSV row %d: %w", rows+c.Rows+2, shiftLines(c.err, lines))
}

// shiftLines moves a csv.ParseError's line numbers by the lines that
// came before the text its reader was given.
func shiftLines(err error, by int) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		pe.StartLine += by
		pe.Line += by
	}
	return err
}
