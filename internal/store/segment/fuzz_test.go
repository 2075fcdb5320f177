package segment

import (
	"os"
	"path/filepath"
	"testing"
)

// validSegmentBytes builds a small real segment to seed the corpora.
func validSegmentBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.seg")
	w, err := NewWriter(path, []ColumnSpec{
		{Name: "x", Kind: KindFloat64},
		{Name: "s", Kind: KindString},
	}, &WriterOptions{RowsPerPage: 4})
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		if r%3 == 0 {
			w.AppendNull(0)
		} else {
			w.AppendFloat(0, float64(r))
		}
		w.AppendString(1, []string{"a", "b"}[r%2])
		if err := w.EndRow(); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzSegmentFooter drives the footer decoder with arbitrary bytes: it
// must return an error or a footer, never panic, and never allocate
// beyond what the input length admits (the decoder's counts are
// validated against remaining bytes before any make).
func FuzzSegmentFooter(f *testing.F) {
	seed := validSegmentBytes(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		footer, err := decodeFooter(data)
		if err != nil {
			return
		}
		// A decoded footer must re-encode to the same byte count it was
		// decoded from (the decoder consumes the whole input).
		if got := len(footer.encode()); got != len(data) {
			t.Fatalf("footer of %d bytes re-encodes to %d", len(data), got)
		}
	})
}

// FuzzSegmentOpen drives Open with arbitrary file contents: truncated,
// bit-flipped or hostile files must error cleanly — no panic, no
// runaway allocation from attacker-controlled counts.
func FuzzSegmentOpen(f *testing.F) {
	seed := validSegmentBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(append([]byte(Magic), seed[:32]...))
	f.Add([]byte(Magic + Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, NewPoolObs(1<<16, nil))
		if err != nil {
			return
		}
		defer s.Close()
		// An accepted file must serve every page it declares.
		for ci := range s.Footer().Cols {
			for pi := range s.Footer().Cols[ci].Pages {
				dh, err := s.DataPage(ci, pi)
				if err != nil {
					t.Fatalf("accepted segment failed to read page %d/%d: %v", ci, pi, err)
				}
				dh.Release()
				nh, err := s.NullPage(ci, pi)
				if err != nil {
					t.Fatalf("accepted segment failed to read null page %d/%d: %v", ci, pi, err)
				}
				nh.Release()
			}
			if s.Footer().Cols[ci].Kind == KindString {
				if _, err := s.Dict(ci); err != nil {
					t.Fatalf("accepted segment failed to decode dictionary %d: %v", ci, err)
				}
			}
		}
	})
}
