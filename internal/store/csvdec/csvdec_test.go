package csvdec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store/segment"
)

// What the decoder decodes is held to the reference reader, cell for
// cell and byte for byte, by the differentials and the fuzzer of package
// store (ingest_test.go, csv_fuzz_test.go), which own the reference.
// The tests here are about the pipeline itself: its bound, its stops,
// its invariance to the worker count.

var testOptions = Options{Comma: ',', NullTokens: []string{"NA"}}

// source serves data, counting the bytes each pass reads.
type source struct {
	data  []byte
	opens []*countingReader
}

type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (s *source) open() (io.ReadCloser, error) {
	s.opens = append(s.opens, &countingReader{r: bytes.NewReader(s.data)})
	return io.NopCloser(s.opens[len(s.opens)-1]), nil
}

func (s *source) read() (n int64) {
	for _, r := range s.opens {
		n += r.n.Load()
	}
	return n
}

// testSink is a Sink a test scripts: it keeps what it is given, can
// stall or fail on a chunk, and counts aborts.
type testSink struct {
	onChunk func(i int) error
	kinds   []segment.Kind
	chunks  []*Chunk
	rows    int
	aborts  int
}

func (s *testSink) Consume(c *Chunk) error {
	s.chunks = append(s.chunks, c)
	s.rows += c.Rows
	if s.onChunk != nil {
		return s.onChunk(len(s.chunks))
	}
	return nil
}

func (s *testSink) Abort() { s.aborts++ }

// decode runs Decode into sink (remade per pass when nil is passed for
// it), with GOMAXPROCS forced to workers.
func decode(t *testing.T, src *source, blockSize, workers int, sink *testSink) (*testSink, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	last := sink
	err := Decode(src.open, testOptions, blockSize, func(_ []string, kinds []segment.Kind) (Sink, error) {
		if sink == nil {
			last = &testSink{}
		}
		last.kinds = kinds
		return last, nil
	})
	return last, err
}

func floatRows(rows int) []byte {
	var b bytes.Buffer
	b.WriteString("a,b\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d.5,%d.25\n", i, i)
	}
	return b.Bytes()
}

// TestDecodeBoundsBlocksInFlight stalls the sink on its first chunk and
// checks how far the producer read ahead: at most the GOMAXPROCS+2
// blocks pass's doc comment states, plus the one being cut and the
// header, however long the stall and the input.
func TestDecodeBoundsBlocksInFlight(t *testing.T) {
	const blockSize, workers = 1024, 2
	src := &source{data: floatRows(40000)} // some 500 blocks
	var atStall int64
	sink := &testSink{}
	sink.onChunk = func(i int) error {
		if i == 1 {
			// No event says "the producer is blocked"; waiting can only
			// give it time to overrun, never fail a sound bound.
			pass := src.opens[len(src.opens)-1]
			for prev := int64(-1); prev != pass.n.Load(); time.Sleep(20 * time.Millisecond) {
				prev = pass.n.Load()
			}
			atStall = pass.n.Load()
		}
		return nil
	}
	if _, err := decode(t, src, blockSize, workers, sink); err != nil {
		t.Fatal(err)
	}
	if sink.rows != 40000 || len(src.opens) != 2 || sink.aborts != 0 {
		t.Fatalf("sink saw %d rows and %d aborts over %d opens", sink.rows, sink.aborts, len(src.opens))
	}
	if limit := int64((workers + 2 + 2) * blockSize); atStall > limit {
		t.Fatalf("producer read %d bytes ahead of a stalled sink, want at most %d", atStall, limit)
	}
}

// TestDecodeStrayQuoteFailsFast: a quote in the middle of an unquoted
// field (5" of rain) is encoding/csv's ErrBareQuote on that line. The
// block cutter must not pair it with a quote that never comes and
// buffer the rest of the input to say so.
func TestDecodeStrayQuoteFailsFast(t *testing.T) {
	good := floatRows(40000)
	cut := bytes.Index(good, []byte("\n500.5,")) + 1
	src := &source{data: append(append(append([]byte{}, good[:cut]...), "1,5\"\n"...), good[cut:]...)}
	_, err := decode(t, src, 1024, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "row 502") || !strings.Contains(err.Error(), "line 502") || !strings.Contains(err.Error(), "bare") {
		t.Fatalf("stray quote: %v", err)
	}
	if src.read() > 32<<10 {
		t.Fatalf("decoder read %d of %d bytes to report %v", src.read(), len(src.data), err)
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i > 200 {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before Decode:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDecodeStopsCleanly: a decode error, a sink error and a
// contradiction each end a pass early. The producer and the workers
// must be gone when Decode returns and the pass's sink aborted; after a
// contradiction a second sink receives every row under the exact
// schema.
func TestDecodeStopsCleanly(t *testing.T) {
	good := floatRows(20000)
	half := bytes.Index(good, []byte("\n10000.5,")) + 1
	base := runtime.NumGoroutine()

	ragged := &source{data: append(append(append([]byte{}, good[:half]...), "1,2,3\n"...), good[half:]...)}
	sink, err := decode(t, ragged, 2048, 3, nil)
	if err == nil || !strings.Contains(err.Error(), "row 10002") || !strings.Contains(err.Error(), "line 10002: wrong number of fields") {
		t.Fatalf("ragged input: %v", err)
	}
	waitGoroutines(t, base)
	if sink.aborts != 1 || ragged.read() > int64(half)+16*2048 {
		t.Fatalf("decode error: %d aborts, %d of %d bytes read", sink.aborts, ragged.read(), len(ragged.data))
	}

	boom := errors.New("sink full")
	sink = &testSink{onChunk: func(i int) error {
		if i == 5 {
			return boom
		}
		return nil
	}}
	if _, err = decode(t, &source{data: good}, 2048, 3, sink); !errors.Is(err, boom) {
		t.Fatalf("sink error came back as %v", err)
	}
	waitGoroutines(t, base)
	if sink.aborts != 1 || len(sink.chunks) != 5 {
		t.Fatalf("sink error: %d chunks, %d aborts", len(sink.chunks), sink.aborts)
	}

	// The last row turns column a from float to string.
	contra := &source{data: append(append([]byte{}, good...), "x,1\n"...)}
	var sinks []*testSink
	err = Decode(contra.open, testOptions, 2048, func(_ []string, kinds []segment.Kind) (Sink, error) {
		sinks = append(sinks, &testSink{kinds: kinds})
		return sinks[len(sinks)-1], nil
	})
	waitGoroutines(t, base)
	if err != nil || len(sinks) != 2 || len(contra.opens) != 3 {
		t.Fatalf("contradicting input: %d sinks over %d opens, %v", len(sinks), len(contra.opens), err)
	}
	first, second := sinks[0], sinks[1]
	if first.aborts != 1 || first.kinds[0] != segment.KindFloat64 {
		t.Fatalf("first pass: kinds %v, %d aborts", first.kinds, first.aborts)
	}
	if second.aborts != 0 || second.rows != 20001 || !reflect.DeepEqual(second.kinds, []segment.Kind{segment.KindString, segment.KindFloat64}) {
		t.Fatalf("second pass: kinds %v, %d rows, %d aborts", second.kinds, second.rows, second.aborts)
	}
}

// TestDecodeConcurrentWorkerInvariance (make race-store picks it up):
// whatever the worker count and the block size, the sink is handed the
// same cells in the same order.
func TestDecodeConcurrentWorkerInvariance(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("id,x,flag,label,late\r\n")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&b, "%d,%g,%v,", i, float64(i)*0.25-7, i%3 == 0)
		switch i % 5 {
		case 0:
			b.WriteString("\"multi\nline, with \"\"quotes\"\"\"")
		case 1:
			b.WriteString("NA")
		default:
			fmt.Fprintf(&b, "label %d", i%7)
		}
		if i < 3000 || i%2 == 0 {
			fmt.Fprintf(&b, ",%d\n", i)
		} else {
			fmt.Fprintf(&b, ",%d.5\n", i)
		}
	}
	// flatten joins a sink's chunks into one Cells per column.
	flatten := func(s *testSink) []segment.Cells {
		out := make([]segment.Cells, len(s.kinds))
		for _, c := range s.chunks {
			for j, col := range c.Cols {
				o := &out[j]
				o.Floats, o.Ints = append(o.Floats, col.Floats...), append(o.Ints, col.Ints...)
				o.Bools, o.Strings = append(o.Bools, col.Bools...), append(o.Strings, col.Strings...)
				if col.Nulls == nil {
					col.Nulls = make([]bool, c.Rows)
				}
				o.Nulls = append(o.Nulls, col.Nulls...)
			}
		}
		return out
	}
	var want []segment.Cells
	for _, blockSize := range []int{300, 4096, 4 << 20} {
		for _, workers := range []int{1, 2, 7} {
			sink, err := decode(t, &source{data: b.Bytes()}, blockSize, workers, nil)
			if err != nil || sink.rows != 4000 {
				t.Fatalf("block size %d, %d workers: %d rows, %v", blockSize, workers, sink.rows, err)
			}
			got := flatten(sink)
			if want == nil {
				want = got
				if kinds := []segment.Kind{segment.KindInt64, segment.KindFloat64, segment.KindBool, segment.KindString, segment.KindFloat64}; !reflect.DeepEqual(sink.kinds, kinds) {
					t.Fatalf("kinds %v, want %v", sink.kinds, kinds)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) { // NaN placeholders defeat DeepEqual
				t.Fatalf("block size %d, %d workers: cells differ from the first run's", blockSize, workers)
			}
		}
	}
}
