package store

import (
	"io"
	"os"

	"repro/internal/store/csvdec"
	"repro/internal/store/segment"
)

// SegmentBuildOptions controls CSV-to-segment conversion.
type SegmentBuildOptions struct {
	// CSV holds the parsing options (delimiter, null tokens, inference
	// bound). Inference semantics are exactly ReadCSV's, so a segment
	// built from a CSV holds the same typed values the in-memory path
	// would.
	CSV CSVOptions
	// RowsPerPage is the page granularity (default
	// segment.DefaultRowsPerPage).
	RowsPerPage int
}

// BuildSegment converts a CSV file into a segment file through the
// same decoder as ReadCSV (package csvdec), its chunks appended to the
// page writer in file order, so the file holds exactly the typed
// values, and the dictionaries in exactly the order, ReadCSV would
// build. The input is read once when the schema speculated from its
// start holds for every cell (or CSV.MaxInferRows fixes the schema
// from a prefix); a cell that contradicts it costs one more pass, and
// the partial file is discarded first. It returns the number of data
// rows written; on error no file is left behind.
//
// The resident footprint is O(columns × RowsPerPage) for the writer's
// pages, plus at most GOMAXPROCS+2 blocks of 256 KB in flight (each with
// its decoded chunk), plus the string dictionaries — the row count
// never enters into it.
func BuildSegment(csvPath, segPath string, opts *SegmentBuildOptions) (int64, error) {
	if opts == nil {
		opts = &SegmentBuildOptions{}
	}
	var sink *segSink
	err := ingest(func() (io.ReadCloser, error) { return os.Open(csvPath) }, opts.CSV.withDefaults(),
		func(names []string, kinds []segment.Kind) (_ csvdec.Sink, err error) {
			sink, err = newSegSink(segPath, names, kinds, opts.RowsPerPage)
			return sink, err
		})
	if err != nil {
		return 0, err
	}
	footer, err := sink.w.Finish()
	if err != nil {
		return 0, err
	}
	return footer.NumRows, nil
}

// segSink appends the chunks to a segment writer.
type segSink struct{ w *segment.Writer }

func newSegSink(path string, names []string, kinds []segment.Kind, rowsPerPage int) (*segSink, error) {
	schema := make([]segment.ColumnSpec, len(names))
	for i, n := range names {
		schema[i] = segment.ColumnSpec{Name: n, Kind: kinds[i]}
	}
	w, err := segment.NewWriter(path, schema, &segment.WriterOptions{RowsPerPage: rowsPerPage})
	if err != nil {
		return nil, err
	}
	return &segSink{w}, nil
}

func (s *segSink) Consume(c *csvdec.Chunk) error { return s.w.AppendRows(c.Rows, c.Cols) }

func (s *segSink) Abort() { s.w.Abort() }
