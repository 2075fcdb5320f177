package segment

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// buildTestSegment writes a small segment covering every column kind,
// nulls in every kind, and a partial final page.
func buildTestSegment(t *testing.T, rows, rpp int) (string, *Footer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.seg")
	schema := []ColumnSpec{
		{Name: "f", Kind: KindFloat64},
		{Name: "i", Kind: KindInt64},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
	}
	w, err := NewWriter(path, schema, &WriterOptions{RowsPerPage: rpp})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if r%7 == 3 {
			w.AppendNull(0)
		} else {
			w.AppendFloat(0, float64(r)*0.5)
		}
		if r%11 == 5 {
			w.AppendNull(1)
		} else {
			w.AppendInt(1, int64(r*3))
		}
		if r%13 == 1 {
			w.AppendNull(2)
		} else {
			w.AppendString(2, []string{"red", "green", "blue"}[r%3])
		}
		if r%17 == 2 {
			w.AppendNull(3)
		} else {
			w.AppendBool(3, r%2 == 0)
		}
		if err := w.EndRow(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return path, f
}

func TestSegmentRoundTrip(t *testing.T) {
	const rows, rpp = 1000, 64
	path, _ := buildTestSegment(t, rows, rpp)
	s, err := Open(path, NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.NumRows(); got != rows {
		t.Fatalf("NumRows = %d, want %d", got, rows)
	}
	wantPages := (rows + rpp - 1) / rpp
	if got := s.NumPages(); got != wantPages {
		t.Fatalf("NumPages = %d, want %d", got, wantPages)
	}
	dict, err := s.Dict(2)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is "red", row 1 is null (r%13==1), row 2 is "blue": the
	// dictionary records first appearance order.
	if len(dict) != 3 || dict[0] != "red" || dict[1] != "blue" || dict[2] != "green" {
		t.Fatalf("dict = %v, want first-appearance [red blue green]", dict)
	}

	readCell := func(ci, r int) (float64, bool) {
		pi, j := r/rpp, r%rpp
		dh, err := s.DataPage(ci, pi)
		if err != nil {
			t.Fatal(err)
		}
		defer dh.Release()
		nh, err := s.NullPage(ci, pi)
		if err != nil {
			t.Fatal(err)
		}
		defer nh.Release()
		if nh != nil && BitAt(nh.Bytes(), j) {
			return 0, false
		}
		switch s.Footer().Cols[ci].Kind {
		case KindFloat64:
			return Float64At(dh.Bytes(), j), true
		case KindInt64:
			return float64(Int64At(dh.Bytes(), j)), true
		case KindString:
			return float64(Int32At(dh.Bytes(), j)), true
		default:
			if BitAt(dh.Bytes(), j) {
				return 1, true
			}
			return 0, true
		}
	}
	for r := 0; r < rows; r++ {
		if v, ok := readCell(0, r); (r%7 == 3) == ok || (ok && v != float64(r)*0.5) {
			t.Fatalf("float row %d: got %v ok=%v", r, v, ok)
		}
		if v, ok := readCell(1, r); (r%11 == 5) == ok || (ok && v != float64(r*3)) {
			t.Fatalf("int row %d: got %v ok=%v", r, v, ok)
		}
		if v, ok := readCell(2, r); (r%13 == 1) == ok || (ok && dict[int(v)] != []string{"red", "green", "blue"}[r%3]) {
			t.Fatalf("string row %d: got code %v ok=%v", r, v, ok)
		}
		if v, ok := readCell(3, r); (r%17 == 2) == ok || (ok && (v == 1) != (r%2 == 0)) {
			t.Fatalf("bool row %d: got %v ok=%v", r, v, ok)
		}
	}
}

func TestSegmentPageStats(t *testing.T) {
	const rows, rpp = 300, 100
	path, f := buildTestSegment(t, rows, rpp)
	// Recompute float-column min/max per page independently.
	for pi, pg := range f.Cols[0].Pages {
		min, max := math.Inf(1), math.Inf(-1)
		nulls := 0
		for j := 0; j < pg.Rows; j++ {
			r := pi*rpp + j
			if r%7 == 3 {
				nulls++
				continue
			}
			v := float64(r) * 0.5
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if pg.Min != min || pg.Max != max || pg.NullCount != nulls {
			t.Fatalf("page %d stats = (%v,%v,%d nulls), want (%v,%v,%d)",
				pi, pg.Min, pg.Max, pg.NullCount, min, max, nulls)
		}
	}
	// Reopen to confirm the stats survive the encode/decode cycle.
	s, err := Open(path, NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pi, pg := range s.Footer().Cols[0].Pages {
		if pg != f.Cols[0].Pages[pi] {
			t.Fatalf("page %d decoded %+v, written %+v", pi, pg, f.Cols[0].Pages[pi])
		}
	}
}

func TestSegmentAllNullPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nulls.seg")
	w, err := NewWriter(path, []ColumnSpec{{Name: "x", Kind: KindFloat64}}, &WriterOptions{RowsPerPage: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		w.AppendNull(0)
		if err := w.EndRow(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	pg := f.Cols[0].Pages[0]
	if !math.IsNaN(pg.Min) || !math.IsNaN(pg.Max) || pg.NullCount != 8 {
		t.Fatalf("all-null page stats = %+v", pg)
	}
	if _, err := Open(path, NewPoolObs(1<<20, nil)); err != nil {
		t.Fatalf("open all-null segment: %v", err)
	}
}

func TestSegmentEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.seg")
	w, err := NewWriter(path, []ColumnSpec{{Name: "x", Kind: KindInt64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumRows() != 0 || s.NumPages() != 0 {
		t.Fatalf("empty segment: %d rows, %d pages", s.NumRows(), s.NumPages())
	}
}

func TestSegmentOpenRejectsCorruption(t *testing.T) {
	path, _ := buildTestSegment(t, 200, 64)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tryOpen := func(name string, b []byte) error {
		t.Helper()
		p := filepath.Join(tmp, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(p, NewPoolObs(1<<20, nil))
		if err == nil {
			s.Close()
		}
		return err
	}
	if err := tryOpen("trunc-half.seg", good[:len(good)/2]); err == nil {
		t.Error("truncated file opened without error")
	}
	if err := tryOpen("trunc-1.seg", good[:len(good)-1]); err == nil {
		t.Error("file missing final byte opened without error")
	}
	if err := tryOpen("empty.seg", nil); err == nil {
		t.Error("empty file opened without error")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if err := tryOpen("badmagic.seg", bad); err == nil {
		t.Error("bad leading magic opened without error")
	}
	// Flip a bit inside the footer: the CRC must catch it.
	footerOff := binary.LittleEndian.Uint64(good[len(good)-trailerLen:])
	bad = append([]byte(nil), good...)
	bad[footerOff+4] ^= 0x10
	if err := tryOpen("badfooter.seg", bad); err == nil {
		t.Error("corrupt footer opened without error")
	}
	// Point a page out of bounds and fix the CRC: directory validation
	// must catch it.
	footerLen := binary.LittleEndian.Uint32(good[len(good)-trailerLen+8:])
	fb := append([]byte(nil), good[footerOff:footerOff+uint64(footerLen)]...)
	f, err := decodeFooter(fb)
	if err != nil {
		t.Fatal(err)
	}
	f.Cols[0].Pages[0].Off = int64(len(good)) * 2
	fb2 := f.encode()
	bad = append([]byte(nil), good[:footerOff]...)
	bad = append(bad, fb2...)
	var trailer []byte
	trailer = binary.LittleEndian.AppendUint64(trailer, footerOff)
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(len(fb2)))
	trailer = binary.LittleEndian.AppendUint32(trailer, footerCRC(fb2))
	trailer = append(trailer, Magic...)
	bad = append(bad, trailer...)
	if err := tryOpen("badpage.seg", bad); err == nil {
		t.Error("out-of-bounds page directory opened without error")
	}
}

func TestWriterEndRowValidatesCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.seg")
	w, err := NewWriter(path, []ColumnSpec{{Name: "a", Kind: KindInt64}, {Name: "b", Kind: KindInt64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendInt(0, 1)
	if err := w.EndRow(); err == nil {
		t.Fatal("EndRow accepted a row with a missing column value")
	}
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Abort left the file behind: %v", err)
	}
}

func TestWriterRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWriter(filepath.Join(dir, "a.seg"),
		[]ColumnSpec{{Name: "x", Kind: KindInt64}, {Name: "x", Kind: KindFloat64}}, nil); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewWriter(filepath.Join(dir, "b.seg"),
		[]ColumnSpec{{Name: "x", Kind: Kind(99)}}, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSegmentPreadFallback(t *testing.T) {
	// Force the pread path by reading through a segment whose mapping we
	// drop: simulate by opening normally and checking both paths agree.
	path, _ := buildTestSegment(t, 128, 32)
	s, err := Open(path, NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Mapped() {
		t.Skip("mmap unavailable on this platform; pread is the only path")
	}
	// Compare a page read via the mapping with a direct pread.
	pg := s.Footer().Cols[0].Pages[1]
	h, err := s.DataPage(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, pg.Len)
	if _, err := f.ReadAt(buf, pg.Off); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != h.Bytes()[i] {
			t.Fatalf("mmap and pread disagree at byte %d", i)
		}
	}
}

// TestAppendRowsMatchesRowAtATime: the same table appended column-wise
// in runs that straddle row groups (and interleaved with row-at-a-time
// appends) must give the file buildTestSegment writes cell by cell,
// byte for byte — null placeholders, dictionary order and all.
func TestAppendRowsMatchesRowAtATime(t *testing.T) {
	const rows, rpp = 1000, 64
	wantPath, _ := buildTestSegment(t, rows, rpp)
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "batch.seg")
	w, err := NewWriter(path, []ColumnSpec{
		{Name: "f", Kind: KindFloat64}, {Name: "i", Kind: KindInt64},
		{Name: "s", Kind: KindString}, {Name: "b", Kind: KindBool},
	}, &WriterOptions{RowsPerPage: rpp})
	if err != nil {
		t.Fatal(err)
	}
	for lo, n := 0, 1; lo < rows; lo, n = lo+n, n*3%200+1 {
		n = min(n, rows-lo)
		cols := make([]Cells, 4)
		for ci := range cols {
			cols[ci].Nulls = make([]bool, n)
		}
		for k := 0; k < n; k++ {
			r := lo + k
			cols[0].Nulls[k], cols[1].Nulls[k], cols[2].Nulls[k], cols[3].Nulls[k] = r%7 == 3, r%11 == 5, r%13 == 1, r%17 == 2
			f, i, s, b := float64(r)*0.5, int64(r*3), []string{"red", "green", "blue"}[r%3], r%2 == 0
			if cols[0].Nulls[k] {
				f = math.NaN()
			}
			if cols[1].Nulls[k] {
				i = 0
			}
			if cols[2].Nulls[k] {
				s = ""
			}
			cols[0].Floats, cols[1].Ints = append(cols[0].Floats, f), append(cols[1].Ints, i)
			cols[2].Strings, cols[3].Bools = append(cols[2].Strings, s), append(cols[3].Bools, b && !cols[3].Nulls[k])
		}
		for ci := range cols {
			if !slices.Contains(cols[ci].Nulls, true) {
				cols[ci].Nulls = nil // the form a run without nulls arrives in
			}
		}
		if err := w.AppendRows(n, cols); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("column-wise file (%d bytes) differs from the row-at-a-time one (%d bytes)", len(got), len(want))
	}
}
