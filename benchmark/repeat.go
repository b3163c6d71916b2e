package main

import (
	"context"
	"fmt"
	"os"
	"sort"
)

// Repeatability mode: the suite runs in `sets` independent sets of
// `runs` runs (run r of every set uses seed base+r, so exact metrics
// compare bit for bit and timings differ by noise alone). Per metric and
// workload it prints each set's median and quartile spread and the
// set-to-set difference, and fails when a later set's median is worse
// than the first's by more than the metric's bound, or when a spread is
// wider than the bound — the same two tests a later change is held to.
// The demoted timings (timingSpecs) are in the table too, marked ungated:
// their spread is the record of why they were demoted.

// quartiles returns the first and third quartile of v (the exclusive
// method Python's statistics.quantiles(v, n=4) uses).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

func repeatability(ctx context.Context, names []string, opt options, sets, runs int) error {
	if sets < 2 || runs < 2 {
		return fmt.Errorf("repeatability needs -sets >= 2 and -runs >= 2")
	}
	opt.verbose = nil
	specs := append(append([]metricSpec(nil), endToEnd...), timingSpecs...)
	// values[workload][metric][set] = one value per run
	values := make(map[string]map[string][][]float64)
	var failedOps int64
	for set := 0; set < sets; set++ {
		for run := 0; run < runs; run++ {
			o := opt
			o.seed = opt.seed + uint64(run)
			for _, name := range names {
				res, err := runWorkload(ctx, name, o)
				if err != nil {
					return err
				}
				failedOps += res.Failed
				if values[name] == nil {
					values[name] = make(map[string][][]float64)
				}
				for _, ms := range specs {
					if values[name][ms.Name] == nil {
						values[name][ms.Name] = make([][]float64, sets)
					}
					v, gated := res.EndToEnd[ms.Name]
					if !gated {
						v = res.Timings[ms.Name]
					}
					values[name][ms.Name][set] = append(values[name][ms.Name][set], v)
				}
				fmt.Printf("set %d run %d seed %d %s: ops_failed %d\n", set, run, o.seed, name, res.Failed)
			}
		}
	}

	bad := 0
	for _, name := range names {
		fmt.Printf("%s\n  %-22s %-8s %14s %8s %14s %8s %9s %6s\n", name, "metric", "unit", "median[0]", "iqr%", "median[last]", "iqr%", "worse%", "bound%")
		for _, ms := range specs {
			bySet := values[name][ms.Name]
			first, last := bySet[0], bySet[sets-1]
			m0, m1 := median(first), median(last)
			if m0 == 0 {
				continue // a timing this workload does not produce
			}
			spread := func(v []float64, med float64) float64 {
				q1, q3 := quartiles(v)
				return 100 * (q3 - q1) / med
			}
			s0, s1 := spread(first, m0), spread(last, m1)
			worse := 100 * (m1 - m0) / m0
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if ms.Bound == 0 {
				verdict = "  ungated"
			} else if worse > 100*ms.Bound {
				verdict = "  SET-TO-SET DIFFERENCE OVER BOUND"
				bad++
			} else if ms.Name != "setup_s" && (s0 > 100*ms.Bound || s1 > 100*ms.Bound) {
				verdict = "  SPREAD OVER BOUND"
				bad++
			}
			fmt.Printf("  %-26s %-8s %14.6f %8.2f %14.6f %8.2f %9.2f %6.1f%s\n", ms.Name, ms.Unit, m0, s0, m1, s1, worse, 100*ms.Bound, verdict)
		}
	}
	if failedOps > 0 {
		return fmt.Errorf("%d operations failed their correctness check", failedOps)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d metric x workload pairs do not repeat within their bound\n", bad)
		os.Exit(1)
	}
	fmt.Println(`{"claim": null}`)
	return nil
}
