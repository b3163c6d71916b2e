package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"csoutlier/internal/linalg"
	"csoutlier/internal/obs"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// CollectOptions tunes fault-tolerant sketch collection.
type CollectOptions struct {
	// MinNodes is the minimum number of node responses required for the
	// aggregation to be considered usable. 0 means all nodes (strict).
	//
	// Sketch linearity makes partial aggregation well-defined: the sum
	// over responding nodes is exactly the sketch of the aggregate over
	// those nodes (the paper's node-removal property, §1 challenge 3),
	// so an outage shrinks the data window instead of failing the query.
	MinNodes int
	// MaxAttempts is how many times each node's sketch is requested
	// before the node is declared failed (0 = default 2). The TCP
	// transport additionally retries broken connections internally; this
	// level retries application failures and re-polls flaky nodes.
	MaxAttempts int
	// NodeTimeout bounds each individual attempt (0 = only the overall
	// ctx limits it). A straggler past the per-attempt deadline is
	// retried; one past the overall deadline is dropped.
	NodeTimeout time.Duration
	// RetryBackoff is the base delay between a node's attempts; it grows
	// exponentially with full jitter (0 = default 50ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the retry delay (0 = default 1s).
	MaxBackoff time.Duration
	// QuorumGrace, when positive, bounds how long the collector keeps
	// waiting for stragglers once MinNodes responses are in: after the
	// grace elapses, in-flight requests are cancelled and the quorum
	// aggregate is returned. 0 waits for all nodes or the overall ctx.
	QuorumGrace time.Duration
	// BackoffSeed seeds the retry-jitter RNG; each node's worker splits
	// its own stream off it by node ID, so retry storms stay
	// decorrelated across nodes while the whole collection replays
	// deterministically. 0 uses a fixed default seed.
	BackoffSeed uint64
	// Metrics, when non-nil, receives the collection's attempt/retry/
	// timeout/byte counters and per-node RTT observations (cluster_*
	// families). nil = no instrumentation.
	Metrics *obs.Registry
}

// NodeStats reports one node's behaviour during a collection.
type NodeStats struct {
	Attempts int           // sketch attempts made against this node
	Retries  int           // attempts beyond the first
	Timeouts int           // attempts that died on a deadline
	RTT      time.Duration // round-trip time of the last attempt
	OK       bool          // whether a sketch was obtained
	Err      string        // terminal error when OK is false
}

// PartialResult reports a fault-tolerant collection.
type PartialResult struct {
	Sketch   linalg.Vector // the sum over Included; nil when the quorum was missed
	Included []string      // node IDs whose sketches are in the sum
	Failed   map[string]error
	Nodes    map[string]NodeStats // per-node health/latency
	Stats    CommStats
}

// CollectSketchesCtx gathers sketches in parallel with cancellation,
// per-node retries and straggler tolerance. It returns early with an
// error when the context is cancelled or when too few nodes respond;
// otherwise it sums whatever subset responded (at least opts.MinNodes)
// and reports the exact membership of the aggregate plus per-node
// health. A missed quorum returns the report next to the error, without
// a Sketch: which nodes failed, how, and after how many attempts is what
// an operator needs exactly then. On return, every goroutine it started has exited and every
// in-flight request has been cancelled — nothing leaks, provided node
// implementations honor ctx (NodeAPI's contract).
func CollectSketchesCtx(ctx context.Context, nodes []NodeAPI, spec sensing.Spec, opts CollectOptions) (*PartialResult, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	min := opts.MinNodes
	if min <= 0 || min > len(nodes) {
		min = len(nodes)
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2
	}
	baseBackoff := opts.RetryBackoff
	if baseBackoff <= 0 {
		baseBackoff = 50 * time.Millisecond
	}
	maxBackoff := opts.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	jitterSeed := opts.BackoffSeed
	if jitterSeed == 0 {
		jitterSeed = 0x9e3779b97f4a7c15
	}

	// inner is cancelled the moment the collector decides to stop —
	// overall deadline, quorum grace expiry, or normal completion — so
	// in-flight node.Sketch calls unblock and their goroutines exit.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	type report struct {
		id string
		y  linalg.Vector
		ns NodeStats
	}
	// Buffered to len(nodes): a worker can always deliver its final
	// report and exit, even after the collector stopped receiving.
	ch := make(chan report, len(nodes))
	for _, node := range nodes {
		go func(node NodeAPI) {
			var ns NodeStats
			var y linalg.Vector
			rng := xrand.New(jitterSeed).Split(backoffSeed(0, node.ID()))
			for attempt := 1; attempt <= maxAttempts; attempt++ {
				if attempt > 1 {
					ns.Retries++
					if xrand.SleepCtx(inner, xrand.BackoffDelay(rng, attempt-1, baseBackoff, maxBackoff)) != nil {
						break
					}
				}
				if err := inner.Err(); err != nil {
					if ns.Err == "" {
						ns.Err = err.Error()
					}
					break
				}
				actx := inner
				acancel := func() {}
				if opts.NodeTimeout > 0 {
					actx, acancel = context.WithTimeout(inner, opts.NodeTimeout)
				}
				start := time.Now()
				v, err := node.Sketch(actx, spec)
				ns.RTT = time.Since(start)
				ns.Attempts++
				acancel()
				if err == nil && len(v) != spec.M {
					err = fmt.Errorf("sketch length %d, want %d", len(v), spec.M)
				}
				if err == nil {
					y = v
					ns.OK = true
					ns.Err = ""
					break
				}
				ns.Err = err.Error()
				if isTimeout(err) {
					ns.Timeouts++
				}
			}
			if !ns.OK && ns.Err == "" {
				ns.Err = "cancelled before first attempt"
			}
			ch <- report{id: node.ID(), y: y, ns: ns}
		}(node)
	}

	res := &PartialResult{
		Sketch: make(linalg.Vector, spec.M),
		Failed: make(map[string]error),
		Nodes:  make(map[string]NodeStats, len(nodes)),
		Stats:  CommStats{Rounds: 1},
	}
	record := func(r report) {
		res.Nodes[r.id] = r.ns
		res.Stats.Attempts += r.ns.Attempts
		res.Stats.Retries += r.ns.Retries
		res.Stats.Timeouts += r.ns.Timeouts
		if r.ns.OK {
			sensing.AddSketch(res.Sketch, r.y)
			res.Included = append(res.Included, r.id)
			res.Stats.Bytes += sensing.SketchBytes(spec.M)
			res.Stats.Messages++
		} else {
			res.Failed[r.id] = errors.New(r.ns.Err)
		}
	}

	received := 0
	timedOut := false
	var graceTimer *time.Timer
	var grace <-chan time.Time
loop:
	for received < len(nodes) {
		select {
		case <-ctx.Done():
			timedOut = true
			break loop
		case <-grace:
			break loop
		case r := <-ch:
			received++
			record(r)
			if opts.QuorumGrace > 0 && grace == nil && len(res.Included) >= min && received < len(nodes) {
				graceTimer = time.NewTimer(opts.QuorumGrace)
				grace = graceTimer.C
			}
		}
	}
	if graceTimer != nil {
		graceTimer.Stop()
	}
	// Stop every in-flight request and reap every worker: each one is
	// guaranteed a slot in the buffered channel, so draining to
	// len(nodes) reports means all goroutines have finished their work.
	cancel()
	for received < len(nodes) {
		r := <-ch
		received++
		record(r)
	}

	if opts.Metrics != nil {
		recordCollect(opts.Metrics, res, len(res.Included) >= min)
	}
	sort.Strings(res.Included)
	if len(res.Included) < min {
		res.Sketch = nil
		if timedOut {
			return res, fmt.Errorf("cluster: context done with %d/%d responses (need %d): %w",
				len(res.Included), len(nodes), min, ctx.Err())
		}
		return res, fmt.Errorf("cluster: only %d/%d nodes responded (need %d); failures: %v",
			len(res.Included), len(nodes), min, res.Failed)
	}
	return res, nil
}

// faultyNode wraps a NodeAPI and fails every call; used by tests.
type faultyNode struct {
	name string
}

// NewFaultyNode returns a node that errors on every request — a stand-in
// for a crashed or partitioned data center in tests and examples.
func NewFaultyNode(name string) NodeAPI { return &faultyNode{name: name} }

func (f *faultyNode) ID() string { return f.name }
func (f *faultyNode) Sketch(context.Context, sensing.Spec) (linalg.Vector, error) {
	return nil, fmt.Errorf("cluster: node %s unavailable", f.name)
}
func (f *faultyNode) FullVector(context.Context) (linalg.Vector, error) {
	return nil, fmt.Errorf("cluster: node %s unavailable", f.name)
}
func (f *faultyNode) SampleValues(context.Context, []int) ([]float64, error) {
	return nil, fmt.Errorf("cluster: node %s unavailable", f.name)
}
func (f *faultyNode) LocalOutliers(context.Context, float64, int) ([]outlier.KV, error) {
	return nil, fmt.Errorf("cluster: node %s unavailable", f.name)
}
