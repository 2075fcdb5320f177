package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// datasetName is the name the benchmark's one table is served under.
const datasetName = "bench"

// env is one served dataset: the relation, and blaeud's stack over it
// behind a real listener.
type env struct {
	rel      store.Relation
	segTable *store.SegmentTable // nil for the in-memory backing
	tel      *obs.Telemetry
	mgr      *session.Manager
	httpSrv  *http.Server
	done     chan error // Serve's return
	base     string     // http://127.0.0.1:port

	ingestS     float64
	ingestBytes int64 // CSV bytes ingested
	fileBytes   int64 // segment file size (0 in memory)
}

// ingest loads the CSV the way blaeud would be handed it: read into
// memory, or converted to a segment and opened under a pool a sixth of
// its size. The telemetry plane is blaeud's: one registry for the
// pool, the scheduler and the build histograms, the slow-build log at
// 1 s (sent nowhere).
func ingest(w *workloadSpec, csvPath, dir string) (*env, error) {
	e := &env{tel: &obs.Telemetry{
		Registry:  obs.NewRegistry(),
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
		SlowBuild: time.Second,
	}}
	st, err := os.Stat(csvPath)
	if err != nil {
		return nil, err
	}
	e.ingestBytes = st.Size()
	t0 := time.Now()
	if w.seg {
		segPath := filepath.Join(dir, datasetName+".seg")
		if _, err := store.BuildSegment(csvPath, segPath, nil); err != nil {
			return nil, fmt.Errorf("building segment: %w", err)
		}
		sst, err := os.Stat(segPath)
		if err != nil {
			return nil, err
		}
		e.fileBytes = sst.Size()
		pool := segment.NewPoolObs(sst.Size()/segPoolDivisor, e.tel.Registry)
		t, err := store.OpenSegmentTableWith(segPath, pool)
		if err != nil {
			return nil, fmt.Errorf("opening segment: %w", err)
		}
		t.SetName(datasetName)
		e.rel, e.segTable = t, t
	} else {
		t, err := store.ReadCSVFile(csvPath, nil)
		if err != nil {
			return nil, fmt.Errorf("reading CSV: %w", err)
		}
		e.rel = t
	}
	e.ingestS = time.Since(t0).Seconds()
	return e, nil
}

// serve wires the server exactly as cmd/blaeud/main.go does — same
// manager constructor, queue caps and options — and listens on a
// loopback port.
func (e *env) serve(seed int64, sample int) error {
	e.mgr = session.NewManagerObs(jobs.Config{MaxQueued: 1024, MaxQueuedPerSession: 16}, e.tel)
	srv := server.NewWith(map[string]store.Relation{datasetName: e.rel},
		core.Options{Seed: seed, SampleSize: sample}, e.mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: srv}
	e.done = make(chan error, 1)
	go func() { e.done <- e.httpSrv.Serve(ln) }()
	return nil
}

// close stops the server, the scheduler and the segment, and waits for
// the serve goroutine.
func (e *env) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.httpSrv.Shutdown(ctx)
		cancel()
		<-e.done
		e.mgr.Shutdown()
	}
	if e.segTable != nil {
		_ = e.segTable.Close()
	}
}

// poolStats reads the page-pool counters (zero in memory).
func (e *env) poolStats() segment.PoolStats {
	if e.segTable == nil {
		return segment.PoolStats{}
	}
	return e.segTable.PoolStats()
}

// usage is a reading of the process counters a window is charged with.
type usage struct {
	cpu        time.Duration // user+sys
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	heapAlloc  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		heapAlloc:  ms.HeapAlloc,
	}
}

// roundStat is what one timed round cost.
type roundStat struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pauseNs uint64
	clicks  int
	// heapLive is HeapAlloc right after the GC that preceded the round.
	heapLive uint64
}

// timeRound runs one round inside a timing, CPU and alloc window. The
// GC that aligns the collector's phase and the counter reads stay
// outside it.
func timeRound(round func() int) roundStat {
	runtime.GC()
	before := readUsage()
	t0 := time.Now()
	clicks := round()
	wall := time.Since(t0)
	after := readUsage()
	return roundStat{
		wall:     wall,
		cpu:      after.cpu - before.cpu,
		alloc:    after.totalAlloc - before.totalAlloc,
		gcs:      after.numGC - before.numGC,
		pauseNs:  after.pauseNs - before.pauseNs,
		clicks:   clicks,
		heapLive: before.heapAlloc,
	}
}
