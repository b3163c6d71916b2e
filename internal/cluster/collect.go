package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"time"

	"csoutlier/internal/linalg"
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
	// before the node is declared failed (0 = default 2). This is the
	// pull path's one retry loop: a RemoteNode makes one exchange per
	// call, so a broken connection, an error reply and a straggler are
	// each a failed attempt, and the next attempt re-dials if the
	// connection was poisoned.
	MaxAttempts int
	// NodeTimeout bounds each individual attempt (0 = only the overall
	// ctx limits it). A straggler past the per-attempt deadline is
	// retried; one past the overall deadline is dropped, and the
	// aggregate is returned if the quorum is in.
	NodeTimeout time.Duration
	// BackoffSeed seeds the retry-jitter RNG; each node's worker splits
	// its own stream off it by node ID, so retry storms stay
	// decorrelated across nodes while the whole collection replays
	// deterministically. 0 uses a fixed default seed.
	BackoffSeed uint64
}

// retryBackoff is the base delay between a node's attempts; it doubles
// per retry up to one second, with equal jitter.
const retryBackoff = 50 * time.Millisecond

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

// CollectSketches asks every node for its sketch in parallel and sums
// the answers into the global measurement y = Σ y_l (paper eq. 1), one
// round at L·M·8 bytes — with cancellation, per-node retries and
// straggler tolerance. It returns early with an error when the context
// is cancelled or when too few nodes respond; otherwise it sums whatever
// subset responded (at least opts.MinNodes; the zero value demands all)
// and reports the exact membership of the aggregate plus per-node
// health. The sum runs in node order whatever order the answers arrive
// in, so one membership always gives the same bits. A missed quorum
// returns the report next to the error, without a Sketch: which nodes
// failed, how, and after how many attempts is what an operator needs
// exactly then. On return, every goroutine it started has exited and
// every in-flight request has been cancelled — nothing leaks, provided
// node implementations honor ctx (NodeAPI's contract).
func CollectSketches(ctx context.Context, nodes []NodeAPI, spec sensing.Spec, opts CollectOptions) (*PartialResult, error) {
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
	jitterSeed := opts.BackoffSeed
	if jitterSeed == 0 {
		jitterSeed = 0x9e3779b97f4a7c15
	}

	// inner is cancelled the moment the collector decides to stop —
	// overall deadline or normal completion — so in-flight node.Sketch
	// calls unblock and their goroutines exit.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	type report struct {
		i  int // position in nodes
		y  linalg.Vector
		ns NodeStats
	}
	// Buffered to len(nodes): a worker can always deliver its final
	// report and exit, even after the collector stopped receiving.
	ch := make(chan report, len(nodes))
	for i, node := range nodes {
		go func(i int, node NodeAPI) {
			var ns NodeStats
			var y linalg.Vector
			rng := xrand.New(jitterSeed).Split(backoffSeed(0, node.ID()))
			for attempt := 1; attempt <= maxAttempts; attempt++ {
				if attempt > 1 {
					ns.Retries++
					if xrand.SleepCtx(inner, xrand.BackoffDelay(rng, attempt-1, retryBackoff, time.Second)) != nil {
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
			ch <- report{i: i, y: y, ns: ns}
		}(i, node)
	}

	reports := make([]report, len(nodes))
	received := 0
	timedOut := false
loop:
	for received < len(nodes) {
		select {
		case <-ctx.Done():
			timedOut = true
			break loop
		case r := <-ch:
			received++
			reports[r.i] = r
		}
	}
	// Stop every in-flight request and reap every worker: each one is
	// guaranteed a slot in the buffered channel, so draining to
	// len(nodes) reports means all goroutines have finished their work.
	cancel()
	for received < len(nodes) {
		r := <-ch
		received++
		reports[r.i] = r
	}

	res := &PartialResult{
		Sketch: make(linalg.Vector, spec.M),
		Failed: make(map[string]error),
		Nodes:  make(map[string]NodeStats, len(nodes)),
		Stats:  CommStats{Rounds: 1},
	}
	for i, r := range reports {
		id := nodes[i].ID()
		res.Nodes[id] = r.ns
		res.Stats.Attempts += r.ns.Attempts
		res.Stats.Retries += r.ns.Retries
		res.Stats.Timeouts += r.ns.Timeouts
		if r.ns.OK {
			sensing.AddSketch(res.Sketch, r.y)
			res.Included = append(res.Included, id)
			res.Stats.Bytes += sensing.SketchBytes(spec.M)
			res.Stats.Messages++
		} else {
			res.Failed[id] = errors.New(r.ns.Err)
		}
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

// backoffSeed resolves a jitter seed: an explicit non-zero seed wins,
// otherwise a stable FNV-1a hash of the label (the node ID) keeps
// distinct targets decorrelated without global state.
func backoffSeed(seed uint64, label string) uint64 {
	if seed != 0 {
		return seed
	}
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
}

// isTimeout reports whether err is a deadline expiry, on the wire or in
// a context.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
