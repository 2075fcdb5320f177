// Command blaeud serves the Blaeu web application: the full architecture
// of paper Fig. 4 in one binary. It loads the built-in demonstration
// datasets (synthetic Hollywood / Countries / LOFAR, §4.2) plus any CSV
// files given on the command line, and serves the interactive client and
// JSON API on the given address.
//
// The job scheduler ships with backpressure on: queue caps answer 429
// with Retry-After once reached (tunable with -max-queued /
// -max-queued-per-session, 0 disables), sessions opened with a "tenant"
// label share weighted-round-robin dispatch (-tenant-weights) and
// optional in-flight quotas (-tenant-max-in-flight), and GET
// /api/jobs/stats exposes the scheduler counters.
//
// Usage:
//
//	blaeud [-addr :8080] [-seed 1] [-sample 2000] [-lofar-n 200000] [-no-builtin]
//	       [-session-ttl 1h]
//	       [-max-queued 1024] [-max-queued-per-session 16]
//	       [-map-cache 0]
//	       [-tenant-weights gold=4,free=1] [-tenant-max-in-flight 0]
//	       [-page-budget-mb 256] [-pprof-addr ""] [-slow-build-ms 1000]
//	       [file.csv | file.seg ...]
//
// Telemetry: GET /metrics serves the Prometheus-format registry (the
// scheduler, reuse cache, buffer pool and build-stage histograms), each
// build job records a per-stage trace at
// GET /api/sessions/{id}/jobs/{jobID}/trace, builds slower than
// -slow-build-ms are logged to stderr as JSON with their stage
// breakdown, and -pprof-addr serves net/http/pprof on a separate
// listener (off by default).
//
// Files ending in .seg are opened as out-of-core paged columnar
// segments (see internal/store/segment, cmd/blaeu-convert): rows stay
// on disk and pages stream through a buffer pool shared across all
// segment datasets, capped at -page-budget-mb. That is how a 10M+ row
// dataset is served without loading it into memory.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// parseWeights parses a "name=weight,name=weight" flag into a tenant
// weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q (want name=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q: weight must be a positive integer", pair)
		}
		out[name] = w
	}
	return out, nil
}

// ingestRate renders the time since t0 and the MB/s that makes of the
// file at path, for the per-dataset load line.
func ingestRate(path string, t0 time.Time) string {
	secs := time.Since(t0).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Sprintf("ingested in %.2f s", secs)
	}
	return fmt.Sprintf("ingested in %.2f s (%.1f MB/s)", secs, float64(fi.Size())/1e6/secs)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "random seed for synthetic data and clustering")
	sample := flag.Int("sample", 2000, "multi-scale sampling budget per action")
	lofarN := flag.Int("lofar-n", 200000, "rows in the synthetic LOFAR catalogue (0 disables)")
	noBuiltin := flag.Bool("no-builtin", false, "do not load the built-in demo datasets")
	sessionTTL := flag.Duration("session-ttl", time.Hour, "evict sessions idle for longer than this (0 disables)")
	mapCache := flag.Int("map-cache", 0, "per-session map-cache entries; cold entries also keep their sample vectors for derived zooms (0 = engine default, -1 disables)")
	maxQueued := flag.Int("max-queued", 1024, "total queued-job cap; submissions beyond it get 429 (0 = unbounded)")
	sessionQueue := flag.Int("max-queued-per-session", 16, "per-session queued-job cap; beyond it 429 (0 = unbounded)")
	tenantWeights := flag.String("tenant-weights", "", "weighted-round-robin weights per tenant, e.g. gold=4,free=1 (unlisted tenants weigh 1)")
	tenantInFlight := flag.Int("tenant-max-in-flight", 0, "max concurrently running jobs per tenant (0 = unbounded)")
	pageBudgetMB := flag.Int64("page-budget-mb", 256, "buffer-pool byte budget (MiB) shared by all .seg datasets")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	slowBuildMS := flag.Int64("slow-build-ms", 1000, "log builds slower than this with their stage breakdown (0 disables)")
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("-tenant-weights: %v", err)
	}

	datasets := make(map[string]store.Relation)
	if !*noBuiltin {
		log.Printf("generating built-in demo datasets (seed %d)...", *seed)
		datasets["hollywood"] = datagen.Hollywood(rand.New(rand.NewSource(*seed))).Table
		datasets["countries"] = datagen.Countries(rand.New(rand.NewSource(*seed + 1))).Table
		if *lofarN > 0 {
			datasets["lofar"] = datagen.LOFAR(datagen.LOFAROptions{N: *lofarN},
				rand.New(rand.NewSource(*seed+2))).Table
		}
	}
	// The telemetry plane: one registry feeds /metrics, the scheduler's
	// counters, the build histograms and the buffer-pool series; the
	// structured logger receives the slow-build log on stderr.
	tel := &obs.Telemetry{
		Registry:  obs.NewRegistry(),
		Logger:    slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		SlowBuild: time.Duration(*slowBuildMS) * time.Millisecond,
	}

	var segPool *segment.Pool
	for _, path := range flag.Args() {
		if strings.HasSuffix(path, ".seg") {
			if segPool == nil {
				segPool = segment.NewPoolObs(*pageBudgetMB<<20, tel.Registry)
			}
			t, err := store.OpenSegmentTableWith(path, segPool)
			if err != nil {
				log.Fatalf("loading %s: %v", path, err)
			}
			defer t.Close()
			datasets[t.Name()] = t
			log.Printf("opened segment %s: %d rows × %d cols (page budget %d MiB shared)",
				t.Name(), t.NumRows(), t.NumCols(), *pageBudgetMB)
			continue
		}
		t0 := time.Now()
		t, err := store.ReadCSVFile(path, nil)
		if err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
		datasets[t.Name()] = t
		log.Printf("loaded %s: %d rows × %d cols, %s", t.Name(), t.NumRows(), t.NumCols(), ingestRate(path, t0))
	}
	if len(datasets) == 0 {
		fmt.Fprintln(os.Stderr, "no datasets to serve (use built-ins or pass CSV files)")
		os.Exit(1)
	}

	manager := session.NewManagerObs(jobs.Config{
		MaxQueued:           *maxQueued,
		MaxQueuedPerSession: *sessionQueue,
		Weights:             weights,
		DefaultMaxInFlight:  *tenantInFlight,
	}, tel)
	srv := server.NewWith(datasets, core.Options{
		Seed: *seed, SampleSize: *sample,
		MapCacheSize: *mapCache,
	}, manager)
	if *sessionTTL > 0 {
		// Sweep at a quarter of the TTL: abandoned sessions (and their
		// scheduled jobs) are reclaimed within 1.25 × TTL.
		stop := srv.Manager().StartEvictor(*sessionTTL, *sessionTTL/4)
		defer stop()
	}
	if *pprofAddr != "" {
		// pprof gets its own listener and mux so profiling is never
		// exposed on the public API address by accident.
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("pprof listening on %s", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, mux))
		}()
	}
	log.Printf("Blaeu serving %d datasets on %s (%d job workers, queue caps %d total / %d per session)",
		len(datasets), *addr, srv.Manager().Pool().Workers(), *maxQueued, *sessionQueue)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
