// Command blaeu-convert turns a CSV file into a Blaeu segment file —
// the out-of-core columnar format blaeud serves without loading rows
// into memory (see internal/store/segment).
//
// Usage:
//
//	blaeu-convert [-rows-per-page 8192] [-infer-rows 0] [-comma ,] input.csv output.seg
//
// Conversion streams through the same block-parallel decoder as the
// in-memory CSV reader (store.BuildSegment): the file is read once when
// the column types guessed from its start hold to the end, twice when a
// later cell contradicts them, with memory bounded by columns ×
// rows-per-page plus a few 256 KB blocks in flight, so a 100M-row file
// converts on a laptop. Column types follow the same inference rules as
// the in-memory reader, which is what makes segment-backed exploration
// results identical to in-memory ones.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/store"
)

func main() {
	rowsPerPage := flag.Int("rows-per-page", 0, "rows per page (0 = default 8192)")
	inferRows := flag.Int("infer-rows", 0, "rows examined for type inference (0 = all rows)")
	comma := flag.String("comma", "", "field delimiter (default ',')")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: blaeu-convert [flags] input.csv output.seg")
		flag.Usage()
		os.Exit(2)
	}
	in, out := flag.Arg(0), flag.Arg(1)
	opts := &store.SegmentBuildOptions{RowsPerPage: *rowsPerPage}
	opts.CSV.MaxInferRows = *inferRows
	if *comma != "" {
		r := []rune(*comma)
		if len(r) != 1 {
			log.Fatalf("-comma: want a single character, got %q", *comma)
		}
		opts.CSV.Comma = r[0]
	}
	t0 := time.Now()
	rows, err := store.BuildSegment(in, out, opts)
	if err != nil {
		log.Fatalf("converting %s: %v", in, err)
	}
	secs := time.Since(t0).Seconds()
	fi, err := os.Stat(out)
	if err != nil {
		log.Fatal(err)
	}
	rate := ""
	if src, err := os.Stat(in); err == nil {
		rate = fmt.Sprintf(" (%.1f MB/s of CSV)", float64(src.Size())/1e6/secs)
	}
	log.Printf("wrote %s: %d rows, %d bytes, ingested in %.2f s%s", out, rows, fi.Size(), secs, rate)
}
