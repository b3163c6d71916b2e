package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"csoutlier"
)

// countingListener counts every byte that crosses the sockets it
// accepts, both directions: the paper's communication cost, measured at
// the wire and not from the protocol's own accounting.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// Write counts before it writes: over loopback the peer can have read
// the bytes, answered its caller and ended the phase before this
// goroutine runs again, and the bytes belong to the phase that sent them.
func (c countingConn) Write(p []byte) (int, error) {
	c.bytes.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n - len(p)))
	return n, err
}

// listen opens a loopback listener whose traffic is counted in m.wire.
func (m *meter) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return countingListener{ln, &m.wire}, nil
}

// serveOn runs serve(ln) on its own goroutine and returns a function
// that waits for it to return, which it does once its owner is closed.
func serveOn(serve func(net.Listener) error, ln net.Listener) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ln)
	}()
	return func() { <-done }
}

// samples holds per-lane duration samples; each driver goroutine
// appends to its own lane.
type samples struct{ lanes [][]int64 }

func newSamples(lanes int) *samples { return &samples{lanes: make([][]int64, lanes)} }

func (s *samples) add(lane int, d time.Duration) {
	s.lanes[lane] = append(s.lanes[lane], int64(d))
}

func (s *samples) reset() {
	for i := range s.lanes {
		s.lanes[i] = s.lanes[i][:0]
	}
}

func (s *samples) sum() (total int64) {
	for _, l := range s.lanes {
		for _, v := range l {
			total += v
		}
	}
	return total
}

func (s *samples) sorted() []int64 {
	var all []int64
	for _, l := range s.lanes {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// quantile interpolates the q-quantile of sorted nanosecond samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// meter accumulates what one measured phase saw. Counters the driver
// goroutines share are atomic; sample lanes are per goroutine.
type meter struct {
	attempted, failed atomic.Int64
	recallHit         atomic.Int64
	recallWant        atomic.Int64
	obs               atomic.Int64 // key-value pairs ingested
	wire              atomic.Int64 // bytes across the benchmark's listeners
	pointKeys         atomic.Int64 // keys answered by point reads

	freshness *samples
	spanQuery *samples
	pointRead *samples // one sample per watch-list call

	mu    sync.Mutex
	fails []string
}

func newMeter(lanes int) *meter {
	return &meter{freshness: newSamples(lanes), spanQuery: newSamples(lanes), pointRead: newSamples(lanes)}
}

// reset zeroes the meter for the next phase. Failure messages stay: the
// run reports them whichever phase they came from.
func (m *meter) reset() {
	m.attempted.Store(0)
	m.failed.Store(0)
	m.recallHit.Store(0)
	m.recallWant.Store(0)
	m.obs.Store(0)
	m.wire.Store(0)
	m.pointKeys.Store(0)
	m.freshness.reset()
	m.spanQuery.reset()
	m.pointRead.reset()
}

// op counts one attempted operation; err != nil counts it failed.
func (m *meter) op(err error) {
	m.attempted.Add(1)
	if err != nil {
		m.fail(err)
	}
}

func (m *meter) fail(err error) {
	m.failed.Add(1)
	m.mu.Lock()
	if len(m.fails) < 8 {
		m.fails = append(m.fails, err.Error())
	}
	m.mu.Unlock()
}

// checkReport scores a span answer against its oracle: the recall
// counters always move; the op fails when fewer than floor of the exact
// top-k are reported or the mode is off by more than 1%.
func (m *meter) checkReport(rep *csoutlier.Report, want oracle, k, floor int) error {
	exact := make(map[string]bool, k)
	for _, key := range want.top[:k] {
		exact[key] = true
	}
	hits := 0
	for _, o := range rep.Outliers {
		if exact[o.Key] {
			hits++
		}
	}
	m.recallHit.Add(int64(hits))
	m.recallWant.Add(int64(k))
	if hits < floor {
		return fmt.Errorf("span answer has %d of the exact top-%d (floor %d)", hits, k, floor)
	}
	if math.Abs(rep.Mode-want.mode) > 0.01*math.Abs(want.mode) {
		return fmt.Errorf("mode %.6g, exact %.6g (off by more than 1%%)", rep.Mode, want.mode)
	}
	return nil
}

// sketchesAgree reports whether two sketches match to 1e-9 of the
// larger one's norm.
func sketchesAgree(got, want csoutlier.Sketch) error {
	if len(got.Y) != len(want.Y) {
		return fmt.Errorf("sketch length %d, want %d", len(got.Y), len(want.Y))
	}
	var diff, norm float64
	for i := range got.Y {
		d := got.Y[i] - want.Y[i]
		diff += d * d
		norm += want.Y[i] * want.Y[i]
	}
	if math.Sqrt(diff) > 1e-9*math.Max(math.Sqrt(norm), 1) {
		return fmt.Errorf("root window differs from the sketch of the exact sum: |diff| %.3g against |want| %.3g", math.Sqrt(diff), math.Sqrt(norm))
	}
	return nil
}

// usage is a reading of the process-wide resources a phase is charged.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpu, alloc: ms.TotalAlloc}
}

// phase is the outcome of one measured pass over a workload, as the
// clock and the kernel's accounting read it.
type phase struct {
	cycles int64
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	m      *meter
}

// budget bounds a phase by time or, for tests, by an exact cycle count.
type budget struct {
	seconds float64
	cycles  int64 // > 0: run exactly this many cycles
}

func (b budget) scaled(f float64) budget {
	if b.cycles > 0 {
		c := int64(float64(b.cycles) * f)
		if c < 1 {
			c = 1
		}
		return budget{cycles: c}
	}
	return budget{seconds: b.seconds * f}
}

// workload is one set of inputs plus the deployment it drives. new*
// generates the inputs and their exact oracle from the seed (untimed);
// build stands the system up, warms it and returns how long that took
// (setup_s); cycle runs the script's next step; verify runs the
// end-of-run conservation checks; layers reports per-layer numbers
// (counters, then probes) after a traced pass.
type workload interface {
	fingerprint() uint64
	lanes() int
	build(ctx context.Context, m *meter) (time.Duration, error)
	cycle(ctx context.Context, m *meter, tr *recorder) error
	verify(m *meter)
	carves() []carveReading
	layers(ctx context.Context, out map[string]float64) error
	close(ctx context.Context)
}

// carveReading is a cumulative counter the program keeps about time
// spent one layer below a span the benchmark records: ns of `to` inside
// spans named `from`. The traced pass is charged the difference between
// two readings.
type carveReading struct {
	from, to string
	ns       float64
	calls    int64
}

// The box this benchmark runs on shares its cores with other tenants. A
// vCPU flips between full speed and about 0.6 of it every ~20 ms, and the
// share of slow periods drifts over minutes: the same run reads 20-35%
// apart from one quarter of an hour to the next (README, "Noise"). No
// timing of the measured phase holds a bound the contract allows, so they
// are reported as the clock read them and not gated (timingSpecs).
// setup_s is the one timing the contract obliges the benchmark to gate.
// It alone is divided by the machine's slowdown, measured by a kernel
// that only runs while the system under test is torn down.

const (
	// speedWindow is how long the kernel runs before each set-up: several
	// of the machine's fast and slow periods, so the mean tracks their mix.
	speedWindow = 100 * time.Millisecond
	// speedNominalNS is the kernel's duration in the reference box's fast
	// periods. It only fixes the scale: on a quiet box setup_s reads what
	// the clock read.
	speedNominalNS = 270e3
)

// speedometer times a fixed arithmetic kernel: a dependent multiply-add
// chain, then a 4-wide independent one, over the same 256 KiB.
type speedometer struct {
	buf  []float64
	sink float64
}

func newSpeedometer() *speedometer {
	s := &speedometer{buf: make([]float64, 1<<15)}
	for i := range s.buf {
		s.buf[i] = float64(i%31) * 0.25
	}
	return s
}

// slowdown runs the kernel back to back for speedWindow and returns its
// mean duration over nominal: above 1 when the machine is slower than
// the reference box in a fast period.
func (s *speedometer) slowdown() float64 {
	start := time.Now()
	runs := 0
	for ; time.Since(start) < speedWindow; runs++ {
		var acc, a0, a1, a2, a3 float64
		for pass := 0; pass < 8; pass++ {
			scale := 1 + float64(pass)*1e-3
			for _, v := range s.buf {
				acc += v * scale
			}
		}
		for pass := 0; pass < 8; pass++ {
			b := s.buf
			for i := 0; i+3 < len(b); i += 4 {
				a0 += b[i] * 1.0001
				a1 += b[i+1] * 1.0002
				a2 += b[i+2] * 1.0003
				a3 += b[i+3] * 1.0004
			}
		}
		s.sink += acc + a0 + a1 + a2 + a3
	}
	return float64(time.Since(start)) / float64(runs) / speedNominalNS
}

// runPhase drives the workload's next cycles until the budget is spent.
func runPhase(ctx context.Context, w workload, b budget, m *meter, tr *recorder) (phase, error) {
	m.reset()
	runtime.GC()
	start := readUsage()
	deadline := start.at.Add(time.Duration(b.seconds * float64(time.Second)))
	var n int64
	for {
		if b.cycles > 0 {
			if n >= b.cycles {
				break
			}
		} else if n > 0 && !time.Now().Before(deadline) {
			break
		}
		if err := w.cycle(ctx, m, tr); err != nil {
			return phase{}, err
		}
		n++
	}
	end := readUsage()
	return phase{cycles: n, wall: end.at.Sub(start.at), cpu: end.cpu - start.cpu, alloc: end.alloc - start.alloc, m: m}, nil
}

// endToEndMetrics turns an untraced phase into the gated numbers: counts
// and ratios of counts, which repeat whatever the machine is doing.
func endToEndMetrics(p phase, setup float64) map[string]float64 {
	m := p.m
	obs := float64(m.obs.Load())
	out := map[string]float64{
		"setup_s":             setup,
		"wire_bytes_per_obs":  float64(m.wire.Load()) / obs,
		"alloc_bytes_per_obs": float64(p.alloc) / obs,
	}
	if want := m.recallWant.Load(); want > 0 {
		out["topk_recall"] = float64(m.recallHit.Load()) / float64(want)
	}
	return out
}

// phaseTimings turns an untraced phase into the timings a user of the
// system would see, as the clock read them (timingSpecs).
func phaseTimings(p phase) map[string]float64 {
	m := p.m
	obs := float64(m.obs.Load())
	fresh := m.freshness.sorted()
	span := m.spanQuery.sorted()
	out := map[string]float64{
		"bench.ingest_obs_per_s":  obs / p.wall.Seconds(),
		"bench.freshness_p50_ms":  quantile(fresh, 0.50) / 1e6,
		"bench.freshness_p99_ms":  quantile(fresh, 0.99) / 1e6,
		"bench.span_query_p50_ms": quantile(span, 0.50) / 1e6,
		"bench.span_query_p95_ms": quantile(span, 0.95) / 1e6,
		"bench.cpu_us_per_obs":    float64(p.cpu.Microseconds()) / obs,
		"bench.pointq_keys_per_s": 0,
	}
	if ns := m.pointRead.sum(); ns > 0 {
		out["bench.pointq_keys_per_s"] = float64(m.pointKeys.Load()) / (float64(ns) / 1e9)
	}
	return out
}

// timeCalls runs fn n times and returns the median per-call duration in
// nanoseconds. batch > 1 times that many calls per sample, for calls too
// short for the clock.
func timeCalls(n, batch int, fn func()) float64 {
	per := make([]float64, n)
	for i := range per {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn()
		}
		per[i] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per)
}
