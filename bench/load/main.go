// Command load is the click ledger: Blaeu's benchmark. It starts the
// blaeud stack in-process behind a real listener, drives it over TCP as
// an analyst would — a closed loop, one click after the other — and
// reports what a session costs end to end and, in a traced run, what
// share of a click each layer takes.
//
//	go run ./bench/load                       every workload, once each
//	go run ./bench/load -workload explore_seg one workload
//	go run ./bench/load -trace 1              the traced run (per-layer metrics, span file, ledger)
//	go run ./bench/load -aa 3                 same-code agreement: 3 sets, spread against each bound
//
// See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	scale    float64
	aa       int
	jsonOut  string
}

// workDir is where a run keeps its data files and, by default, its span
// files: inside the working directory, which for the acceptance driver
// is the checkout it may write to. The repository's .gitignore names it.
const workDir = ".bench_build"

func realMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process ("+strings.Join(workloadNames(), ", ")+"); empty runs each in a fresh process")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from: the click script, and on explore_seg the table and the engine too")
	fs.Float64Var(&o.seconds, "seconds", 4, "length of the measured phase of one workload")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run: per-layer metrics, span file and ledger")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(workDir, "trace"), "directory the traced run writes its span file to")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies the row counts (the smoke test runs 5000 rows)")
	fs.IntVar(&o.aa, "aa", 0, "run this many sets back to back and print each metric's median, spread and PASS/FAIL against its bound")
	fs.StringVar(&o.jsonOut, "json", "", "write the results as one JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "load: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "load: -trace takes 0 or 1")
		return 2
	}
	if o.workload != "" {
		return runOne(&o)
	}
	return runAll(&o)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runOne runs one workload in this process and prints its metrics; the
// last line of standard output is the result object the acceptance
// driver reads.
func runOne(o *options) int {
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "load: no workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "load-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// A signal must not leave this run's 100 MB of data behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	res, err := runWorkload(&runConfig{
		wl: wl, seed: o.seed, seconds: o.seconds, traced: o.trace == 1,
		scale: o.scale, dir: dir, traceOut: o.traceOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %s: %v\n", wl.name, err)
		return 1
	}
	printResult(os.Stdout, res)
	if o.jsonOut != "" {
		if err := writeJSONFile(o.jsonOut, header(o), []*runResult{res}); err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			return 1
		}
	}
	// The driver's line: exactly these four keys.
	metrics := make(map[string]map[string]any, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric as "workload/metric value unit".
func printResult(w *os.File, res *runResult) {
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s/%s %.6g %s n=%d\n", res.Workload, m.name, v.Value, v.Unit, v.N)
	}
	if res.Clock != nil {
		// What the clock read. Nothing gates these: see sessionClock.
		fmt.Fprintf(w, "%s/clock: setup_s %.4f s at calibration kernel p50 %.2f ms (nominal %d ms)\n",
			res.Workload, res.Clock["setup_s"], res.Clock["calib_ms_p50"], calibNominal/time.Millisecond)
		for _, m := range sessionClock {
			fmt.Fprintf(w, "%s/clock: %s %.6g %s n=%d\n", res.Workload, m.name, res.Clock[m.name], m.unit, res.Rounds)
		}
	}
	for _, line := range res.Extra {
		fmt.Fprintf(w, "%s/%s\n", res.Workload, line)
	}
	fmt.Fprintf(w, "%s/rounds %d clicks %d ops_attempted %d ops_failed %d\n", res.Workload, res.Rounds, res.Clicks, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%s/FAILED %s\n", res.Workload, f)
	}
}

// resultHeader describes the machine and the code a result came from.
type resultHeader struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

func header(o *options) resultHeader {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return resultHeader{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
	}
}

func writeJSONFile(path string, h resultHeader, results []*runResult) error {
	data, err := json.MarshalIndent(struct {
		Header  resultHeader `json:"header"`
		Results []*runResult `json:"results"`
	}{h, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll re-executes this binary once per workload, so heap and page
// pool never carry over from one workload to the next, and with -aa
// repeats that set and judges the agreement.
func runAll(o *options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	sets := o.aa
	if sets < 1 {
		sets = 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(workDir, "results-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var all [][]*runResult // by set
	status := 0
	for set := 0; set < sets; set++ {
		var results []*runResult
		for _, wl := range workloads {
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", wl.name, set))
			args := []string{
				"-workload", wl.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-trace-out", o.traceOut,
				"-scale", fmt.Sprint(o.scale), "-json", out,
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// Everything but the child's last line, which is the driver's.
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			if len(lines) > 1 {
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "load: %s (set %d): %v\n", wl.name, set+1, runErr)
				status = 1
			}
			var doc struct {
				Results []*runResult `json:"results"`
			}
			data, err := os.ReadFile(out)
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err != nil || len(doc.Results) != 1 {
				fmt.Fprintf(os.Stderr, "load: %s (set %d) left no result\n", wl.name, set+1)
				status = 1
				continue
			}
			results = append(results, doc.Results[0])
		}
		all = append(all, results)
	}
	if o.aa > 0 && !agreement(all) {
		status = 1
	}
	if o.jsonOut != "" {
		var flat []*runResult
		for _, set := range all {
			flat = append(flat, set...)
		}
		if err := writeJSONFile(o.jsonOut, header(o), flat); err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			status = 1
		}
	}
	return status
}

// agreement prints, per workload and end-to-end metric, the median over
// the sets, their spread — (max-min)/median — and whether the spread is
// inside the metric's bound.
func agreement(all [][]*runResult) bool {
	byKey := map[string][]float64{}
	for _, set := range all {
		for _, r := range set {
			for name, m := range r.Metrics {
				k := r.Workload + "/" + name
				byKey[k] = append(byKey[k], m.Value)
			}
		}
	}
	pass := true
	fmt.Printf("agreement over %d sets\n", len(all))
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xs := byKey[wl.name+"/"+m.name]
			if len(xs) == 0 {
				continue
			}
			sort.Float64s(xs)
			spread := ratio(xs[len(xs)-1]-xs[0], median(xs))
			verdict := "PASS"
			if spread > m.bound {
				verdict = "FAIL"
				pass = false
			}
			fmt.Printf("%s/%s median %.6g %s spread %.2f%% bound %.0f%% %s\n",
				wl.name, m.name, median(xs), m.unit, 100*spread, 100*m.bound, verdict)
		}
	}
	return pass
}
