package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
)

// errMmapUnavailable makes Open fall back to pread.
var errMmapUnavailable = errors.New("segment: mmap unavailable")

// Segment is an open segment file. Page payloads are served through
// the pool — from the file mapping when mmap succeeded, via pread
// otherwise. A Segment is safe for concurrent readers.
type Segment struct {
	path   string
	f      *os.File
	size   int64
	mapped []byte // nil under the pread fallback
	footer *Footer
	pool   *Pool
	id     uint64

	// Global page-id layout within the pool keyspace: data pages of
	// column c start at dataBase[c], null pages at nullBase[c], and the
	// dictionary page of column c is dictBase+c.
	dataBase []int
	nullBase []int
	dictBase int

	dictOnce []sync.Once
	dicts    [][]string
	dictErr  []error
}

// Open validates and opens a segment file against the given pool. The
// returned Segment holds the file (and mapping) open until Close.
func Open(path string, pool *Pool) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := open(f, path, pool)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func open(f *os.File, path string, pool *Pool) (*Segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(Magic))+trailerLen {
		return nil, fmt.Errorf("segment: %s: file too short (%d bytes)", path, size)
	}
	head := make([]byte, len(Magic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("segment: %s: reading header: %w", path, err)
	}
	if string(head) != Magic {
		return nil, fmt.Errorf("segment: %s: bad magic (not a segment file)", path)
	}
	trailer := make([]byte, trailerLen)
	if _, err := f.ReadAt(trailer, size-trailerLen); err != nil {
		return nil, fmt.Errorf("segment: %s: reading trailer: %w", path, err)
	}
	if string(trailer[16:]) != Magic {
		return nil, fmt.Errorf("segment: %s: bad trailer magic (truncated?)", path)
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[0:]))
	footerLen := int64(binary.LittleEndian.Uint32(trailer[8:]))
	wantCRC := binary.LittleEndian.Uint32(trailer[12:])
	if footerLen > maxFooterLen {
		return nil, fmt.Errorf("segment: %s: footer length %d exceeds limit", path, footerLen)
	}
	if footerOff < int64(len(Magic)) || footerOff+footerLen != size-trailerLen {
		return nil, fmt.Errorf("segment: %s: footer [%d,%d) inconsistent with file size %d",
			path, footerOff, footerOff+footerLen, size)
	}
	fb := make([]byte, footerLen)
	if _, err := f.ReadAt(fb, footerOff); err != nil {
		return nil, fmt.Errorf("segment: %s: reading footer: %w", path, err)
	}
	if footerCRC(fb) != wantCRC {
		return nil, fmt.Errorf("segment: %s: footer checksum mismatch", path)
	}
	footer, err := decodeFooter(fb)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if err := validateFooter(footer, footerOff); err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}

	s := &Segment{
		path:   path,
		f:      f,
		size:   size,
		footer: footer,
		pool:   pool,
		id:     poolIDs.Add(1),
	}
	// One contiguous page-id range per column for data pages, then one
	// per column for null pages, then the dictionary pages.
	npages := 0
	if len(footer.Cols) > 0 {
		npages = len(footer.Cols[0].Pages)
	}
	s.dataBase = make([]int, len(footer.Cols))
	s.nullBase = make([]int, len(footer.Cols))
	for c := range footer.Cols {
		s.dataBase[c] = c * npages
		s.nullBase[c] = (len(footer.Cols) + c) * npages
	}
	s.dictBase = 2 * len(footer.Cols) * npages
	s.dictOnce = make([]sync.Once, len(footer.Cols))
	s.dicts = make([][]string, len(footer.Cols))
	s.dictErr = make([]error, len(footer.Cols))

	if m, err := mmapFile(f, size); err == nil && m != nil {
		s.mapped = m
	}
	return s, nil
}

// validateFooter cross-checks the directory against the data region
// [len(Magic), footerOff): every page in bounds, payload lengths
// matching the kind, row counts consistent across columns.
func validateFooter(f *Footer, footerOff int64) error {
	if f.NumRows < 0 {
		return fmt.Errorf("negative row count %d", f.NumRows)
	}
	if f.RowsPerPage <= 0 {
		if f.NumRows > 0 || len(f.Cols) > 0 {
			return fmt.Errorf("rows per page %d", f.RowsPerPage)
		}
		return nil
	}
	wantPages := int((f.NumRows + int64(f.RowsPerPage) - 1) / int64(f.RowsPerPage))
	seen := make(map[string]bool, len(f.Cols))
	for ci := range f.Cols {
		c := &f.Cols[ci]
		if seen[c.Name] {
			return fmt.Errorf("duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if len(c.Pages) != wantPages {
			return fmt.Errorf("column %q has %d pages, want %d", c.Name, len(c.Pages), wantPages)
		}
		if c.Kind == KindString {
			if c.DictLen < 0 || c.DictOff < int64(len(Magic)) || c.DictOff+c.DictLen > footerOff {
				return fmt.Errorf("column %q dictionary [%d,%d) out of bounds", c.Name, c.DictOff, c.DictOff+c.DictLen)
			}
			if c.DictCard < 0 || c.DictCard > int(c.DictLen) {
				return fmt.Errorf("column %q dictionary cardinality %d inconsistent with %d bytes", c.Name, c.DictCard, c.DictLen)
			}
		}
		var rows int64
		for pi := range c.Pages {
			p := &c.Pages[pi]
			want := f.RowsPerPage
			if pi == wantPages-1 {
				want = int(f.NumRows - int64(pi)*int64(f.RowsPerPage))
			}
			if p.Rows != want {
				return fmt.Errorf("column %q page %d has %d rows, want %d", c.Name, pi, p.Rows, want)
			}
			var wantLen int64
			switch c.Kind {
			case KindFloat64, KindInt64:
				wantLen = int64(p.Rows) * 8
			case KindString:
				wantLen = int64(p.Rows) * 4
			case KindBool:
				wantLen = bitmapLen(p.Rows)
			}
			if p.Len != wantLen {
				return fmt.Errorf("column %q page %d is %d bytes, want %d", c.Name, pi, p.Len, wantLen)
			}
			if p.Off < int64(len(Magic)) || p.Off+p.Len > footerOff {
				return fmt.Errorf("column %q page %d [%d,%d) out of bounds", c.Name, pi, p.Off, p.Off+p.Len)
			}
			if p.NullCount < 0 || p.NullCount > p.Rows {
				return fmt.Errorf("column %q page %d null count %d of %d rows", c.Name, pi, p.NullCount, p.Rows)
			}
			if p.NullCount > 0 {
				if p.NullLen != bitmapLen(p.Rows) {
					return fmt.Errorf("column %q page %d null bitmap is %d bytes, want %d", c.Name, pi, p.NullLen, bitmapLen(p.Rows))
				}
				if p.NullOff < int64(len(Magic)) || p.NullOff+p.NullLen > footerOff {
					return fmt.Errorf("column %q page %d null bitmap out of bounds", c.Name, pi)
				}
			}
			rows += int64(p.Rows)
		}
		if rows != f.NumRows {
			return fmt.Errorf("column %q covers %d rows, want %d", c.Name, rows, f.NumRows)
		}
	}
	return nil
}

// Close releases the mapping and file. Resident pages of this segment
// are invalidated from the pool; callers must have released all
// handles first.
func (s *Segment) Close() error {
	s.pool.Invalidate(s.id)
	var err error
	if s.mapped != nil {
		err = munmap(s.mapped)
		s.mapped = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Footer returns the decoded directory (callers must not mutate).
func (s *Segment) Footer() *Footer { return s.footer }

// NumRows returns the total row count.
func (s *Segment) NumRows() int64 { return s.footer.NumRows }

// NumPages returns the number of row groups.
func (s *Segment) NumPages() int {
	if len(s.footer.Cols) == 0 {
		return 0
	}
	return len(s.footer.Cols[0].Pages)
}

// Pool returns the serving pool (for stats).
func (s *Segment) Pool() *Pool { return s.pool }

// Mapped reports whether the segment is served from an mmap mapping
// (false means the pread fallback).
func (s *Segment) Mapped() bool { return s.mapped != nil }

// load reads [off, off+length) — a subslice of the mapping, or a fresh
// pread buffer.
func (s *Segment) load(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > s.size {
		return nil, fmt.Errorf("segment: %s: read [%d,%d) out of bounds", s.path, off, off+length)
	}
	if s.mapped != nil {
		return s.mapped[off : off+length : off+length], nil
	}
	buf := make([]byte, length)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("segment: %s: read at %d: %w", s.path, off, err)
	}
	return buf, nil
}

// page fetches a page through the pool, pinned.
func (s *Segment) page(id int, off, length int64) (*Handle, error) {
	return s.pool.Get(Key{Seg: s.id, Page: id}, func() ([]byte, error) {
		return s.load(off, length)
	})
}

// DataPage returns the pinned payload of data page pi of column ci.
func (s *Segment) DataPage(ci, pi int) (*Handle, error) {
	p := &s.footer.Cols[ci].Pages[pi]
	return s.page(s.dataBase[ci]+pi, p.Off, p.Len)
}

// NullPage returns the pinned null bitmap of page pi of column ci, or
// (nil, nil) when the page has no nulls (a nil Handle is safe to
// Release).
func (s *Segment) NullPage(ci, pi int) (*Handle, error) {
	p := &s.footer.Cols[ci].Pages[pi]
	if p.NullCount == 0 {
		return nil, nil
	}
	return s.page(s.nullBase[ci]+pi, p.NullOff, p.NullLen)
}

// Dict returns the decoded dictionary of string column ci. The decode
// happens once per segment; the result is shared (callers must not
// mutate).
func (s *Segment) Dict(ci int) ([]string, error) {
	s.dictOnce[ci].Do(func() {
		c := &s.footer.Cols[ci]
		if c.Kind != KindString {
			s.dictErr[ci] = fmt.Errorf("segment: column %q is %s, not string", c.Name, c.Kind)
			return
		}
		b, err := s.load(c.DictOff, c.DictLen)
		if err != nil {
			s.dictErr[ci] = err
			return
		}
		s.dicts[ci], s.dictErr[ci] = decodeDict(b, c.DictCard)
		if s.dictErr[ci] != nil {
			s.dictErr[ci] = fmt.Errorf("segment: column %q: %w", c.Name, s.dictErr[ci])
		}
	})
	return s.dicts[ci], s.dictErr[ci]
}

// decodeDict parses a dictionary page: card entries of u32 length +
// bytes.
func decodeDict(b []byte, card int) ([]string, error) {
	r := &byteReader{b: b}
	out := make([]string, 0, card)
	for i := 0; i < card; i++ {
		n, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("dictionary entry %d: %w", i, err)
		}
		v, err := r.take(int(n))
		if err != nil {
			return nil, fmt.Errorf("dictionary entry %d: %w", i, err)
		}
		out = append(out, string(v))
	}
	if r.remain() != 0 {
		return nil, fmt.Errorf("%d trailing dictionary bytes", r.remain())
	}
	return out, nil
}
