// Command benchmark is the repository's end-to-end, layer-attributed
// benchmark: four seeded workloads driven through the public surfaces of
// the sketch → push → fold → query pipeline, every answer checked
// against an exact oracle. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// the median.
const setupRepeats = 5

type options struct {
	seed    uint64
	budget  budget
	trace   bool
	tiny    bool // test-sized workloads; only the tests set it
	setups  int  // setupRepeats, fewer in tests
	outDir  string
	verbose io.Writer // human-readable report; nil = quiet
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Attempted   int64              `json:"ops_attempted"`
	Failed      int64              `json:"ops_failed"`
	Fails       []string           `json:"failures,omitempty"`
	Cycles      int64              `json:"cycles"`
	Slowdown    float64            `json:"slowdown"` // machine speed around the set-ups; 1 = quiet
	FreshN      int                `json:"freshness_samples"`
	SpanN       int                `json:"span_query_samples"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	Timings     map[string]float64 `json:"timings"` // timingSpecs: as the clock read them, ungated
	Layers      map[string]float64 `json:"per_layer,omitempty"`
	Fingerprint uint64             `json:"inputs_fingerprint"`
}

func newWorkload(name string, seed uint64, tiny bool) (workload, error) {
	switch name {
	case wlIngestFlat:
		return newIngestFlat(seed, tiny), nil
	case wlQueryCold:
		return newQueryCold(seed, tiny), nil
	case wlStandingTier:
		return newStandingTier(seed, tiny), nil
	case wlOneshotPull:
		return newOneshotPull(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload generates a workload's inputs, sets the system up (several
// times, for a steady setup_s), measures, verifies and tears down.
func runWorkload(ctx context.Context, name string, opt options) (*result, error) {
	w, err := newWorkload(name, opt.seed, opt.tiny)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: opt.seed, Fingerprint: w.fingerprint()}
	m := newMeter(w.lanes())
	tally := func() {
		res.Attempted += m.attempted.Load()
		res.Failed += m.failed.Load()
	}
	defer func() { w.close(ctx) }()

	// setup_s: the median set-up over the mean slowdown, which is measured
	// before each build, while nothing is set up.
	speed := newSpeedometer()
	raw, slow := make([]float64, opt.setups), make([]float64, opt.setups)
	for i := range raw {
		if i > 0 {
			w.close(ctx)
		}
		slow[i] = speed.slowdown()
		d, err := w.build(ctx, m)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		raw[i] = d.Seconds()
	}
	tally()
	res.Slowdown = mean(slow)

	untraced := opt.budget
	if opt.trace {
		untraced = opt.budget.scaled(0.3)
	}
	base, err := runPhase(ctx, w, untraced, m, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Cycles = base.cycles
	res.Timings = phaseTimings(base)
	res.FreshN, res.SpanN = len(m.freshness.sorted()), len(m.spanQuery.sorted())
	res.EndToEnd = endToEndMetrics(base, median(raw)/res.Slowdown)
	tally()

	var traced phase
	var rec *recorder
	var before, after []carveReading
	if opt.trace {
		rec = newRecorder(w.lanes())
		before = w.carves()
		if traced, err = runPhase(ctx, w, opt.budget.scaled(0.6), m, rec); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		after = w.carves()
		tally()
	}
	m.reset()
	w.verify(m)
	tally()

	if opt.trace {
		spans := rec.merged()
		layers := selfTimes(spans)
		for i, c := range after {
			carve(layers, c.from, c.to, int64(c.ns-before[i].ns), c.calls-before[i].calls)
		}
		out := make(map[string]float64, len(layerSpecs))
		for _, ls := range layerSpecs {
			out[ls.Name] = 0
		}
		spanMedians(spans, out)
		for name, v := range res.Timings {
			out[name] = v
		}
		perCycle := func(p phase) float64 { return p.wall.Seconds() / float64(p.cycles) }
		out["bench.trace_overhead_pct"] = 100 * (perCycle(traced)/perCycle(base) - 1)
		out["bench.spans"] = float64(len(spans))
		out["bench.slowdown"] = res.Slowdown
		out["bench.share_push_path_pct"], out["bench.share_recovery_pct"] = layerShares(layers)
		// Probes last: they push frames and run queries of their own.
		if err := w.layers(ctx, out); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", name, err)
		}
		res.Layers = out
		if err := flushSpans(opt.outDir, name, spans); err != nil {
			return nil, err
		}
		if opt.verbose != nil {
			writeSelfTable(opt.verbose, name, layers)
		}
	}
	res.Fails = m.fails
	return res, nil
}

// printResult writes every metric of a run by name, with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d: %d cycles, ops_attempted %d, ops_failed %d, samples freshness=%d span_query=%d, machine slowdown %.3f (setup_s is divided by it, nothing else)\n",
		res.Workload, res.Seed, res.Cycles, res.Attempted, res.Failed, res.FreshN, res.SpanN, res.Slowdown)
	for _, f := range res.Fails {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, ms := range endToEnd {
		fmt.Fprintf(w, "  %-30s %16.6f %s\n", ms.Name, res.EndToEnd[ms.Name], ms.Unit)
	}
	if res.Layers == nil {
		for _, ms := range timingSpecs {
			fmt.Fprintf(w, "  %-30s %16.6f %s (ungated)\n", ms.Name, res.Timings[ms.Name], ms.Unit)
		}
	} else {
		for _, ms := range layerSpecs {
			fmt.Fprintf(w, "  %-30s %16.4f %s\n", ms.Name, res.Layers[ms.Name], ms.Unit)
		}
	}
}

// driverLine is the contract's last line of standard output.
func driverLine(res *result, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if trace {
		for _, ms := range layerSpecs {
			metrics[ms.Name] = value{res.Layers[ms.Name], ms.Unit}
		}
	} else {
		for _, ms := range endToEnd {
			metrics[ms.Name] = value{res.EndToEnd[ms.Name], ms.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
}

func main() {
	var (
		wl      = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured phase of each workload")
		trace   = flag.Int("trace", 0, "1: also run the traced pass and report per-layer metrics")
		cycles  = flag.Int64("cycles", 0, "measure exactly this many cycles instead of -seconds (exact counts compare across runs)")
		sets    = flag.Int("sets", 0, "repeatability mode: run the suite in this many independent sets (2)")
		runs    = flag.Int("runs", 5, "repeatability mode: runs per set, each on its own seed")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		outDir  = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if *spec {
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}
	opt := options{
		seed: *seed, trace: *trace != 0, setups: setupRepeats, outDir: *outDir,
		budget: budget{seconds: *seconds, cycles: *cycles}, verbose: os.Stdout,
	}
	ctx := context.Background()
	fmt.Printf("GOMAXPROCS %d, NumCPU %d, %s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	names := workloadNames()
	if *wl != "all" {
		names = []string{*wl}
	}
	if *sets > 0 {
		if err := repeatability(ctx, names, opt, *sets, *runs); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	failed := int64(0)
	var results []*result
	for _, name := range names {
		res, err := runWorkload(ctx, name, opt)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		failed += res.Failed
		results = append(results, res)
	}
	if *wl != "all" {
		line, err := driverLine(results[0], opt.trace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	} else {
		summary, err := json.Marshal(struct {
			Seed    uint64    `json:"seed"`
			Seconds float64   `json:"wall_s"`
			Results []*result `json:"results"`
			Claim   *string   `json:"claim"`
		}{*seed, time.Since(start).Seconds(), results, nil})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", summary)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, ws := range workloadSpecs {
		names[i] = ws.Name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
