// Package obs is the service's dependency-free observability layer: a
// named registry of atomic counters, gauges and fixed-bucket latency
// histograms, rendered in the Prometheus text exposition format and
// served over HTTP together with a readiness check and net/http/pprof.
//
// The paper's evaluation is entirely about *measured* quantities —
// communication bytes, recovery time, per-stage cost (§6, Figs 10–12) —
// and this package is what makes those quantities visible while the
// service runs, not just in offline benchmark reports.
//
// Design constraints, in order:
//
//   - Hot-path cheapness. Counter.Inc, Gauge.Set and Histogram.Observe
//     are lock-free (a handful of atomic operations, no allocation, no
//     map lookup), so the streaming fold path can observe its latency on
//     every frame. Label resolution (Vec.With) does take a lock — hot
//     paths resolve their series once and keep the handle.
//   - No dependencies. The module compiles with the standard library
//     alone; the exposition format is small enough to emit by hand.
//   - One source of truth. Subsystems register their counters here and
//     build their legacy stats snapshots (stream.AggStats, …) FROM the
//     registry, so the printed reports and the scraped metrics can never
//     disagree.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that may go up and down.
// The zero value is ready to use and reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value (convenience for depth/size gauges).
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with lock-free Observe: one
// bounded linear scan over the bucket bounds plus three atomic
// operations. Bounds are upper bucket edges in increasing order; an
// implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Safe for concurrent use; never blocks.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts (per Prometheus convention)
// plus count and sum. Concurrent observes may land between bucket loads;
// the rendered cumulative counts are monotonized so the exposition stays
// well-formed regardless.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.buckets))
	var run int64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	count = run // by construction, Σ buckets == total observes at load time
	return cum, count, h.Sum()
}

// ExpBuckets returns n exponentially growing bucket bounds:
// start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default latency bucket layout: 1µs to ~17s in
// ×2 steps — wide enough for both a microsecond fold and a multi-second
// BOMP recovery on a large key space.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 25) }

// kind discriminates metric families.
type kind uint8

const (
	counterKind kind = iota + 1
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// series is one (labelValues → metric) instance of a family.
type series struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family is one named metric family: a fixed kind and label schema plus
// its live series.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64      // histogram kinds only
	fn     func() float64 // gaugeFuncKind only

	mu     sync.RWMutex
	series map[string]*series
	keys   []string // insertion order, sorted at render
}

// labelKey joins label values into a map key. 0x1f (unit separator)
// cannot appear in reasonable label values; collisions would only merge
// two series' identities, never corrupt memory.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// get returns the series for the given label values, creating it on
// first use.
func (f *family) get(values ...string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: %d label values for %d labels %v", f.name, len(values), len(f.labels), f.labels))
	}
	k := labelKey(values)
	f.mu.RLock()
	s := f.series[k]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[k]; s != nil {
		return s
	}
	s = &series{values: append([]string(nil), values...)}
	switch f.kind {
	case counterKind:
		s.counter = &Counter{}
	case gaugeKind:
		s.gauge = &Gauge{}
	case histogramKind:
		s.hist = newHistogram(f.bounds)
	}
	f.series[k] = s
	f.keys = append(f.keys, k)
	return s
}

// remove drops the series for the given label values, so a family does
// not leak series for entities that no longer exist (an evicted
// streaming node, say). Removing an absent series is a no-op.
func (f *family) remove(values ...string) bool {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: %d label values for %d labels %v", f.name, len(values), len(f.labels), f.labels))
	}
	k := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[k]; !ok {
		return false
	}
	delete(f.series, k)
	for i, key := range f.keys {
		if key == k {
			f.keys = append(f.keys[:i], f.keys[i+1:]...)
			break
		}
	}
	return true
}

// Registry is a named collection of metric families. The zero value is
// not usable; use NewRegistry. All methods are safe for concurrent use.
//
// Family constructors are get-or-create: asking twice for the same name
// returns the same metric, so packages can look up each other's
// families by name. Re-registering a name with a different kind or
// label schema panics — that is a programming error, not a runtime
// condition.
type Registry struct {
	mu     sync.Mutex
	fams   map[string]*family
	scrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName reports whether name matches the Prometheus metric/label
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally exclude
// colons, which we don't emit anyway).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':':
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// family returns the named family, creating it on first registration
// and validating the schema on every later one.
func (r *Registry) family(name, help string, k kind, bounds []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q in family %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{
			name: name, help: help, kind: k,
			labels: append([]string(nil), labels...),
			bounds: bounds,
			series: make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != k || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: family %s re-registered as %v%v, was %v%v", name, k, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: family %s re-registered with labels %v, was %v", name, labels, f.labels))
		}
	}
	return f
}

// Counter returns the label-less counter family name, creating it if
// needed. help is used on first registration only.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, counterKind, nil, nil).get().counter
}

// Gauge returns the label-less gauge family name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, gaugeKind, nil, nil).get().gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for depths, sizes and ages that are cheaper to read on demand
// than to maintain on every mutation.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, gaugeFuncKind, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram returns the label-less histogram family name with the given
// bucket bounds (used on first registration only).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, histogramKind, bounds, nil).get().hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, counterKind, nil, labels)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values...).counter }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, gaugeKind, nil, labels)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values...).gauge }

// Remove drops the series for the given label values so the family does
// not export series for entities that no longer exist (an evicted
// streaming node, say). Returns whether a series was removed; removing
// an absent series is a no-op. Any *Gauge previously obtained via With
// stays usable but is detached: writes to it no longer render.
func (v *GaugeVec) Remove(values ...string) bool { return v.f.remove(values...) }

// OnScrape registers fn to run at the start of every exposition render,
// before any family is read. Subsystems use it to refresh labeled
// gauges from state that is cheaper to snapshot than to track (the
// streaming aggregator's per-node liveness table, for example). fn may
// call any Registry method.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.scrape = append(r.scrape, fn)
	r.mu.Unlock()
}

// families returns the registered families sorted by name, plus the
// scrape callbacks; both are snapshots safe to use without the lock.
func (r *Registry) families() ([]*family, []func()) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	scrape := append([]func(){}, r.scrape...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams, scrape
}
