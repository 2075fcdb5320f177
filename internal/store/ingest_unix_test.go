//go:build unix

package store

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestReadCSVFileFromPipe: blaeud <(zcat data.csv.gz) hands ReadCSVFile
// a path that can be opened and read exactly once.
func TestReadCSVFileFromPipe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fifo.csv")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	data := mixedCSV(2000) // contradicts its first block: two passes over a regular file
	go func() {
		if w, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
			w.Write(data)
			w.Close()
		}
	}()
	var got *Table
	var err error
	withIngest(t, 1024, 2, func() { got, err = ReadCSVFile(path, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "fifo" || got.NumRows() != 2000 || got.ColumnByName("late").Type() != Float64 {
		t.Fatalf("read %q: %d rows [%s]", got.Name(), got.NumRows(), got.Schema())
	}
}
