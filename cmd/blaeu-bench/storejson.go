package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/store"
	"repro/internal/store/segment"
)

// storeBenchEntry is one out-of-core storage measurement: a generated
// CSV is converted to a segment, opened under a fixed page budget, and
// read three ways — cold sample+gather (the map-build entry path), the
// compiled page-at-a-time Filter, and a Filter no page can satisfy.
type storeBenchEntry struct {
	Rows        int     `json:"rows"`
	SegBytes    int64   `json:"segBytes"`
	BudgetBytes int64   `json:"budgetBytes"`
	ConvertMS   float64 `json:"convertMs"`
	OpenMS      float64 `json:"openMs"`
	// SampleMS is a cold 5000-row uniform sample + gather, the first
	// thing a map build does on a freshly opened segment.
	SampleMS float64 `json:"sampleMs"`
	// VectorFilterMS is SegmentTable.Filter: matcher compiled once,
	// pages scanned in place, zone maps consulted first.
	VectorFilterMS float64 `json:"vectorFilterMs"`
	// SkipAllMS filters on a predicate no page satisfies: zone maps
	// answer from the footer without touching data pages.
	SkipAllMS     float64 `json:"skipAllMs"`
	PoolHits      uint64  `json:"poolHits"`
	PoolMisses    uint64  `json:"poolMisses"`
	PoolEvictions uint64  `json:"poolEvictions"`
	MatchedRows   int     `json:"matchedRows"`
}

// writeStoreCSV streams a rows-row CSV with a numeric and a categorical
// column to path. Buffered writes keep generation I/O-bound.
func writeStoreCSV(path string, rows int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString("x,y,label\n"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	buf := make([]byte, 0, 64)
	for i := 0; i < rows; i++ {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, rng.Float64()*100, 'f', 4, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(rng.Intn(1000)), 10)
		buf = append(buf, ',')
		buf = append(buf, labels[rng.Intn(len(labels))]...)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// storeBench runs the storage measurement at the given row count under
// a 256 MiB page budget (the acceptance configuration).
func storeBench(rows int, seed int64) (*storeBenchEntry, error) {
	dir, err := os.MkdirTemp("", "blaeu-store-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "bench.csv")
	segPath := filepath.Join(dir, "bench.seg")
	if err := writeStoreCSV(csvPath, rows, seed); err != nil {
		return nil, err
	}

	e := &storeBenchEntry{Rows: rows, BudgetBytes: 256 << 20}

	start := time.Now()
	if _, err := store.BuildSegment(csvPath, segPath, nil); err != nil {
		return nil, err
	}
	e.ConvertMS = msSince(start)
	fi, err := os.Stat(segPath)
	if err != nil {
		return nil, err
	}
	e.SegBytes = fi.Size()

	start = time.Now()
	st, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(e.BudgetBytes, nil))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	e.OpenMS = msSince(start)

	// Cold sample + gather: the entry path of a map build.
	rng := rand.New(rand.NewSource(seed))
	start = time.Now()
	sample := st.Gather(st.Sample(5000, rng))
	e.SampleMS = msSince(start)
	if sample.NumRows() == 0 {
		return nil, fmt.Errorf("store bench: empty sample")
	}

	pred := store.And{
		store.NumCmp{Col: "x", Op: store.Gt, Val: 50},
		store.StrEq{Col: "label", Val: "c"},
	}

	start = time.Now()
	matched := st.Filter(pred)
	e.VectorFilterMS = msSince(start)
	e.MatchedRows = len(matched)

	start = time.Now()
	if n := len(st.Filter(store.NumCmp{Col: "x", Op: store.Gt, Val: 1e12})); n != 0 {
		return nil, fmt.Errorf("store bench: impossible predicate matched %d rows", n)
	}
	e.SkipAllMS = msSince(start)

	s := st.Segment().Pool().Stats()
	e.PoolHits, e.PoolMisses, e.PoolEvictions = s.Hits, s.Misses, s.Evictions
	return e, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}

// writeStoreBench records the storage section into the bench file at
// path, preserving any other sections already recorded there so the
// store run composes with `make bench-pam` output.
func writeStoreBench(path string, rows int, seed int64) error {
	var out pamBenchFile
	if prev, err := os.ReadFile(path); err == nil {
		// Best effort: a malformed existing file is replaced outright.
		_ = json.Unmarshal(prev, &out)
	}
	e, err := storeBench(rows, seed)
	if err != nil {
		return err
	}
	out.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	out.GoVersion = runtime.Version()
	out.NumCPU = runtime.NumCPU()
	out.Commit = gitShortHash()
	out.Seed = seed
	out.Store = []storeBenchEntry{*e}

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
	fmt.Printf("store bench (%d rows): convert %.0fms, filter %.0fms (%d rows), wrote %s\n",
		e.Rows, e.ConvertMS, e.VectorFilterMS, e.MatchedRows, path)
	return nil
}
