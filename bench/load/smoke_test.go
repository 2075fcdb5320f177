package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in spec.go")

const benchmarkJSON = "../../BENCHMARK.json"

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

// runSeconds is BENCHMARK.json's run_seconds: the measured phase of one
// run. With input generation and three set-ups a run then takes 20–28 s
// on the 2-core box on a quiet day, and the driver's 92 runs fit its 57
// minutes with room for the box at 0.7 times that speed.
const runSeconds = 4

// wantBenchFile is BENCHMARK.json as spec.go defines it.
func wantBenchFile() benchFile {
	f := benchFile{
		Command:    []string{"go", "run", "./bench/load"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := m.bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{m.name, m.unit, m.better, &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	return f
}

// TestBenchmarkJSON pins BENCHMARK.json to spec.go and to the limits of
// the benchmark contract. `go test ./bench/load -run BenchmarkJSON
// -update` rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	want := wantBenchFile()
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes = append(wantBytes, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSON, wantBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("BENCHMARK.json differs from spec.go; run `go test ./bench/load -run BenchmarkJSON -update`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		// The contract gives setup_s the largest bound, at most 25%; the
		// issue caps every other bound at 10%.
		if limit := 0.10; m.name != "setup_s" && (m.bound <= 0 || m.bound > limit) {
			t.Errorf("metric %s: bound %v outside (0, %v]", m.name, m.bound, limit)
		}
		if m.name == "setup_s" {
			if m.bound <= 0 || m.bound > 0.25 {
				t.Errorf("setup_s: bound %v outside (0, 0.25]", m.bound)
			}
			hasSetup = m.unit == "s" && m.better == "lower"
			for _, o := range endToEnd {
				if o.bound > m.bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.name, o.bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	// Every per-layer metric predicts which session metric — an
	// end-to-end one or one of the clock's — it moves, on which workload.
	isSession := map[string]bool{}
	for _, m := range sessionClock {
		isSession[m.name] = true
	}
	for _, m := range perLayer {
		name(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.moves == "" && (isSession[m.name] || strings.HasPrefix(m.name, "bench.")) {
			continue
		}
		metric, wl, ok := strings.Cut(m.moves, "@")
		if !ok {
			t.Errorf("metric %s: moves %q is not metric@workload", m.name, m.moves)
			continue
		}
		if findWorkload(wl) == nil {
			t.Errorf("metric %s moves %q: no such workload", m.name, m.moves)
		}
		found := isSession[metric]
		for _, e := range endToEnd {
			found = found || e.name == metric
		}
		if !found {
			t.Errorf("metric %s moves %q: no such session metric", m.name, m.moves)
		}
	}
}

// toyRows is the table size of the smoke test.
const toyRows = 5000

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// every output check passing.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl.name + "/untraced"
			want := endToEnd
			if traced {
				name, want = wl.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				res, err := runWorkload(&runConfig{
					wl: &wl, seed: 1, rounds: 1, traced: traced, scale: toyRows / float64(wl.rows),
					dir: dir, traceOut: filepath.Join(dir, "trace"),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				// One round on each instance: three of them untraced.
				wantRounds := setupReps
				if traced {
					wantRounds = 1
				}
				if res.Rounds != wantRounds {
					t.Errorf("ran %d rounds, want %d", res.Rounds, wantRounds)
				}
				for _, m := range want {
					v, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s not emitted", m.name)
					} else if v.Unit != m.unit {
						t.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if traced {
					matches, _ := filepath.Glob(filepath.Join(dir, "trace", "*.spans.json"))
					if len(matches) != 1 {
						t.Errorf("span files written: %v", matches)
					}
				}
			})
		}
	}
}
