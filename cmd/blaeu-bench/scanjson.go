package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/store"
	"repro/internal/store/segment"
)

// scanBenchEntry is one streaming batch-scan measurement: a wide CSV is
// converted to a segment and opened under a fixed page budget, then the
// same filtered streaming scan runs sequentially and with parallel
// page-range workers — results must be byte-identical, and ParSpeedup
// is the headline number of the streaming-scan PR (read it against
// NumCPU in the file header: on a single-core runner the parallel path
// can only tie, the >=2x bar needs the multi-core CI box). What a cold
// build and its projected sample gather cost is the click ledger's to
// report (make bench-click: core.sample_ms_p50, store.scan_gather_ms_p50).
type scanBenchEntry struct {
	Rows        int   `json:"rows"`
	Cols        int   `json:"cols"`
	SegBytes    int64 `json:"segBytes"`
	BudgetBytes int64 `json:"budgetBytes"`
	Workers     int   `json:"workers"`
	// SeqFilterMS and ParFilterMS time the identical filtered
	// Scan(...).Collect() against a warmed pool, sequential vs
	// Workers-way parallel page ranges.
	SeqFilterMS float64 `json:"seqFilterMs"`
	ParFilterMS float64 `json:"parFilterMs"`
	ParSpeedup  float64 `json:"parSpeedup"`
	MatchedRows int     `json:"matchedRows"`
}

// writeScanCSV streams a rows-row CSV to path: the x/y/label trio the
// filter predicate reads, plus five filler numeric columns the scan
// never touches.
func writeScanCSV(path string, rows int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString("x,y,label,d0,d1,d2,d3,d4\n"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	buf := make([]byte, 0, 128)
	for i := 0; i < rows; i++ {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, rng.Float64()*100, 'f', 4, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(rng.Intn(1000)), 10)
		buf = append(buf, ',')
		buf = append(buf, labels[rng.Intn(len(labels))]...)
		for d := 0; d < 5; d++ {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, rng.NormFloat64()*float64(d+1), 'f', 4, 64)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// scanBench runs the streaming-scan measurement at the given row count
// under a 256 MiB page budget (the acceptance configuration).
func scanBench(rows int, seed int64) (*scanBenchEntry, error) {
	dir, err := os.MkdirTemp("", "blaeu-scan-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "bench.csv")
	segPath := filepath.Join(dir, "bench.seg")
	if err := writeScanCSV(csvPath, rows, seed); err != nil {
		return nil, err
	}

	e := &scanBenchEntry{Rows: rows, Cols: 8, BudgetBytes: 256 << 20}
	if _, err := store.BuildSegment(csvPath, segPath, nil); err != nil {
		return nil, err
	}
	fi, err := os.Stat(segPath)
	if err != nil {
		return nil, err
	}
	e.SegBytes = fi.Size()

	st, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(e.BudgetBytes, nil))
	if err != nil {
		return nil, err
	}
	defer st.Close()

	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	e.Workers = w

	pred := store.And{
		store.NumCmp{Col: "x", Op: store.Gt, Val: 50},
		store.StrEq{Col: "label", Val: "c"},
	}

	// One untimed pass first so sequential and parallel both run
	// against the same steady-state pool (past the budget the segment
	// still streams pages through eviction either way).
	warm := store.Scan(st, store.ScanSpec{Pred: pred, Workers: 1}).Collect()

	start := time.Now()
	seq := store.Scan(st, store.ScanSpec{Pred: pred, Workers: 1}).Collect()
	e.SeqFilterMS = msSince(start)

	start = time.Now()
	par := store.Scan(st, store.ScanSpec{Pred: pred, Workers: w}).Collect()
	e.ParFilterMS = msSince(start)

	if len(seq) != len(warm) || !reflect.DeepEqual(seq, par) {
		return nil, fmt.Errorf("scan bench: parallel scan diverged from sequential (%d vs %d rows)", len(par), len(seq))
	}
	e.MatchedRows = len(seq)
	if e.ParFilterMS > 0 {
		e.ParSpeedup = e.SeqFilterMS / e.ParFilterMS
	}

	return e, nil
}

// writeScanBench records the streaming-scan section into the bench file
// at path, preserving any other sections already recorded there so the
// scan run composes with the other bench-* targets.
func writeScanBench(path string, rows int, seed int64) error {
	var out pamBenchFile
	if prev, err := os.ReadFile(path); err == nil {
		// Best effort: a malformed existing file is replaced outright.
		_ = json.Unmarshal(prev, &out)
	}
	e, err := scanBench(rows, seed)
	if err != nil {
		return err
	}
	out.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	out.GoVersion = runtime.Version()
	out.NumCPU = runtime.NumCPU()
	out.Commit = gitShortHash()
	out.Seed = seed
	out.Scan = []scanBenchEntry{*e}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Printf("scan bench (%d rows, %d workers, %d cpus): filter seq %.0fms vs parallel %.0fms (%.2fx), wrote %s\n",
		e.Rows, e.Workers, runtime.NumCPU(), e.SeqFilterMS, e.ParFilterMS, e.ParSpeedup, path)
	return nil
}
