// Command csbench regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	csbench -list
//	csbench [-scale 0.1] [-trials 0] [-seed 42] fig4a fig7 conj1 ...
//	csbench -scale 0.2 all
//
// Each experiment id corresponds to a figure of "Distributed Outlier
// Detection using Compressive Sensing" (SIGMOD 2015); see DESIGN.md for
// the per-experiment index. -scale 1 runs paper-size parameters (slow);
// the default 0.1 preserves every qualitative shape in minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"csoutlier/internal/experiments"
)

func main() {
	var (
		scale  = flag.Float64("scale", 0.1, "parameter scale relative to the paper (0 < scale <= 1)")
		trials = flag.Int("trials", 0, "override per-point trial count (0 = scaled default)")
		seed   = flag.Uint64("seed", 42, "experiment seed")
		list   = flag.Bool("list", false, "list available experiments and exit")
		asCSV  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-6s  %s\n", id, experiments.Describe(id))
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "csbench: no experiments given (try -list, or 'all')")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	cfg := experiments.Config{Scale: *scale, Trials: *trials, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		render := experiments.RunAndPrint
		if *asCSV {
			render = experiments.RunAndWriteCSV
		}
		if err := render(id, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "csbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if !*asCSV {
			fmt.Printf("\n[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
