// Command blaeu-bench regenerates the paper's figures and demonstration
// scenarios; `blaeu-bench -list` is the experiment index.
//
// Usage:
//
//	blaeu-bench -list
//	blaeu-bench -exp s2             # one experiment
//	blaeu-bench -exp all            # everything (minutes at scale 1)
//	blaeu-bench -exp e2 -scale 0.2  # reduced scale
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
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

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

	cfg := experiments.Config{Seed: *seed, Scale: *scale}
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
