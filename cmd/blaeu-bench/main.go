// Command blaeu-bench regenerates the paper's figures and demonstration
// scenarios; `blaeu-bench -list` is the experiment index.
//
// Usage:
//
//	blaeu-bench -list
//	blaeu-bench -exp f1b            # one experiment
//	blaeu-bench -exp all            # everything (minutes at scale 1)
//	blaeu-bench -exp e2 -scale 0.2  # reduced scale
//	blaeu-bench -pam-json BENCH_pam.json  # record the PAM perf matrix
//	blaeu-bench -diff old.json new.json   # compare two recorded snapshots
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-shaped)")
	verbose := flag.Bool("v", false, "include rendered maps in the output")
	list := flag.Bool("list", false, "list experiments")
	pamJSON := flag.String("pam-json", "", "write the PAM perf matrix (oracles × seedings) to this JSON file and exit")
	storeJSON := flag.String("store-json", "", "record the out-of-core storage bench into this JSON file and exit")
	storeRows := flag.Int("store-rows", 10_000_000, "row count for the storage bench")
	obsJSON := flag.String("obs-json", "", "record the telemetry overhead bench (trace on vs off) into this JSON file and exit")
	obsBuilds := flag.Int("obs-builds", 21, "measured builds per mode for the telemetry overhead bench")
	scanJSON := flag.String("scan-json", "", "record the streaming scan bench (sequential vs parallel, streamed vs materialized build) into this JSON file and exit")
	scanRows := flag.Int("scan-rows", 10_000_000, "row count for the streaming scan bench")
	diff := flag.Bool("diff", false, "compare two recorded snapshots (args: old.json new.json) and exit")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: blaeu-bench -diff old.json new.json")
			os.Exit(2)
		}
		if err := writeBenchDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "diff: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *pamJSON != "" {
		if err := writePAMBench(*pamJSON, *seed, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "pam-json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *storeJSON != "" {
		if err := writeStoreBench(*storeJSON, *storeRows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "store-json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *obsJSON != "" {
		if err := writeObsBench(*obsJSON, 2000, *obsBuilds, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "obs-json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scanJSON != "" {
		if err := writeScanBench(*scanJSON, *scanRows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "scan-json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-4s %s\n", id, experiments.Describe(id))
		}
		if *exp == "" {
			os.Exit(0)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Verbose: *verbose}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(res.Format())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
