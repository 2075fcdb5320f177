// Command blaeu-ab compares the working tree with another commit on
// one workload of the click ledger (bench/load), the way a clock claim
// has to be stated on a noisy box: interleaved pairs of runs,
// alternating which side goes first, and per metric each side's median
// and quartiles plus how many pairs the working tree won.
//
//	go run ./cmd/blaeu-ab -base HEAD~1 -workload explore_seg -pairs 10 -trace 1
//
// The base commit is exported with git archive into a temporary
// directory (the repository is not touched) and given this tree's
// bench/ directory, so both binaries are the same benchmark over
// different engines. Pair i runs both sides at seed -seed+i. A metric
// is marked "better" or "worse" when one side wins at least nine
// tenths of the pairs (ties count for neither) and the medians differ
// by more than the base's own interquartile range; anything else is
// left unmarked, which means unresolved, not unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	base := flag.String("base", "HEAD", "commit to compare the working tree against")
	workload := flag.String("workload", "explore_seg", "bench/load workload")
	pairs := flag.Int("pairs", 10, "interleaved pairs of runs")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i runs both sides at seed+i")
	seconds := flag.Float64("seconds", 4, "measured seconds per run (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 compares the traced run's per-layer metrics")
	flag.Parse()
	if err := run(*base, *workload, *pairs, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "blaeu-ab:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs int, seed int64, seconds float64, trace int) error {
	higher, err := betterHigher("BENCHMARK.json")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "blaeu-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "base")
	sides := []string{"base", "head"}
	bins := map[string]string{"base": filepath.Join(tmp, "base.bin"), "head": filepath.Join(tmp, "head.bin")}
	for _, step := range []string{
		"mkdir " + baseTree + " " + filepath.Join(tmp, "run-base") + " " + filepath.Join(tmp, "run-head"),
		"git archive " + base + " | tar -x -C " + baseTree,
		"rm -rf " + baseTree + "/bench && cp -R bench " + baseTree + "/bench",
		"cd " + baseTree + " && go build -o " + bins["base"] + " ./bench/load",
		"go build -o " + bins["head"] + " ./bench/load",
	} {
		if out, err := exec.Command("sh", "-c", step).CombinedOutput(); err != nil {
			return fmt.Errorf("%s: %v\n%s", step, err, out)
		}
	}

	// values[metric][side] holds one value per pair.
	values := map[string]map[string][]float64{}
	for i := 0; i < pairs; i++ {
		order := sides
		if i%2 == 1 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			cmd := exec.Command(bins[side], "-workload", workload, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Dir = filepath.Join(tmp, "run-"+side)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("pair %d, %s: %v", i+1, side, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Failed  int
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("pair %d, %s: result line: %v", i+1, side, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("pair %d, %s: %d operations failed", i+1, side, res.Failed)
			}
			for name, m := range res.Metrics {
				if values[name] == nil {
					values[name] = map[string][]float64{}
				}
				values[name][side] = append(values[name][side], m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, pairs)
	}

	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s, %d pairs, working tree against %s (median [q1, q3])\n", workload, pairs, base)
	fmt.Printf("%-38s %-34s %-34s %7s %6s\n", "metric", "base", "head", "head/base", "wins")
	for _, name := range names {
		b, h := values[name]["base"], values[name]["head"]
		if len(b) != pairs || len(h) != pairs {
			continue // not reported by every run
		}
		wins, losses := 0, 0
		for i := range b {
			switch {
			case h[i] == b[i]:
			case (h[i] > b[i]) == higher[name]:
				wins++
			default:
				losses++
			}
		}
		bq1, bmed, bq3 := quartiles(b)
		hq1, hmed, hq3 := quartiles(h)
		verdict := ""
		if diff := hmed - bmed; diff > bq3-bq1 || -diff > bq3-bq1 {
			if 10*wins >= 9*pairs {
				verdict = "better"
			} else if 10*losses >= 9*pairs {
				verdict = "worse"
			}
		}
		fmt.Printf("%-38s %-34s %-34s %9.3f %3d/%-2d %s\n", name,
			fmt.Sprintf("%.5g [%.5g, %.5g]", bmed, bq1, bq3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", hmed, hq1, hq3), hmed/bmed, wins, pairs, verdict)
	}
	return nil
}

// betterHigher reads from BENCHMARK.json which metrics are better when
// higher; the others are better when lower.
func betterHigher(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metric struct{ Name, Better string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	higher := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		higher[m.Name] = m.Better == "higher"
	}
	return higher, nil
}

// quartiles returns the first quartile, median and third quartile of
// v by linear interpolation.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
