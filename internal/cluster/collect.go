package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// Options tunes a round's fault tolerance. The zero value requires
// every node, makes two attempts per node, and bounds each exchange at
// 10 seconds.
type Options struct {
	// MinNodes is the quorum: proceed once this many node sketches are
	// in (0, or more than there are addresses, = all). Sketch linearity
	// makes the partial sum the exact sketch of the aggregate over the
	// responders (the paper's node-removal property, §1 challenge 3): a
	// smaller quorum trades coverage for availability, never accuracy.
	MinNodes int
	// NodeTimeout bounds the dial and each sketch attempt against one
	// node (0 = default 10s; <0 = only ctx bounds them).
	NodeTimeout time.Duration
	// MaxAttempts is how many times a node is asked for its sketch before
	// it is declared failed (0 = default 2): the pull path's one retry
	// loop. Every attempt is one exchange; one that follows a broken
	// connection dials a fresh one.
	MaxAttempts int
	// BackoffSeed seeds the retry jitter between a node's attempts (one
	// stream per node, split off this seed by node ID), so a round's
	// timing replays for a given seed — simtest plumbs the scenario seed
	// through here. 0 uses a fixed default seed.
	BackoffSeed uint64
}

// resolve fills in the defaults for a round over n addresses. A
// negative NodeTimeout stays negative: withTimeout reads it as none.
func (o Options) resolve(n int) Options {
	if o.MinNodes <= 0 || o.MinNodes > n {
		o.MinNodes = n
	}
	if o.NodeTimeout == 0 {
		o.NodeTimeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2
	}
	if o.BackoffSeed == 0 {
		o.BackoffSeed = 0x9e3779b97f4a7c15
	}
	return o
}

// retryBackoff is the base delay between a node's attempts; it doubles
// per retry up to one second, with equal jitter.
const retryBackoff = 50 * time.Millisecond

// NodeReport is one node's view of a round.
type NodeReport struct {
	Addr     string        // address as given to Collect
	ID       string        // node-reported name ("" when dialing failed)
	Included bool          // whether its sketch is in the sum
	Err      string        // terminal error when not included
	Attempts int           // sketch attempts made against it
	Retries  int           // attempts beyond the first
	Timeouts int           // attempts that died on a deadline
	Redials  int           // transport connections re-established
	RTT      time.Duration // round-trip time of the last attempt
	Bytes    int64         // raw wire bytes exchanged (both directions)
}

// Stats is a round's communication cost across all nodes: the paper's
// cost model (Bytes, Messages, Rounds) and the collector's effort.
type Stats struct {
	Bytes    int64 // sketch payload bytes shipped, M·8 per included node
	Messages int   // successful sketch responses
	Rounds   int   // communication rounds (1 once sketches are asked for)
	Attempts int   // sketch attempts, including retries
	Retries  int   // attempts beyond each node's first
	Timeouts int   // attempts that died on a deadline
}

// Round is what a round reports besides its sum: exactly which nodes the
// sum covers, what became of every node, and what collecting it cost.
type Round struct {
	Included []string     // IDs of the nodes whose sketches are in the sum, sorted
	Failed   []NodeReport // nodes excluded (dial, duplicate-ID and sketch failures), in addrs order
	Nodes    []NodeReport // every node, in addrs order
	Stats    Stats
}

// Collect runs the paper's round against the nodes served at addrs and
// returns the sum y = Σ y_l of their sketches under spec (paper eq. 1)
// with the round's report. Every address is dialed at once under the
// node timeout, without retry; a node whose ID another address already
// gave is excluded and never asked, and the round stops there when
// fewer than opts.MinNodes nodes are reachable. A missed quorum returns
// the report next to the error, without a sum. On return every
// goroutine Collect started has exited and every connection is closed.
func Collect(ctx context.Context, addrs []string, spec sensing.Spec, opts Options) (linalg.Vector, *Round, error) {
	if len(addrs) == 0 {
		return nil, nil, errors.New("no node addresses")
	}
	opts = opts.resolve(len(addrs))
	remotes := make([]*RemoteNode, len(addrs))
	dialErrs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dctx, cancel := withTimeout(ctx, opts.NodeTimeout)
			defer cancel()
			remotes[i], dialErrs[i] = Dial(dctx, addr)
		}()
	}
	wg.Wait()

	r := &Round{Nodes: make([]NodeReport, len(addrs))}
	nodes := make([]NodeAPI, len(addrs)) // nil: not asked for a sketch
	reachable := 0
	dialed := make(map[string]bool)
	for i, rn := range remotes {
		nr := &r.Nodes[i]
		nr.Addr = addrs[i]
		if rn == nil {
			nr.Err = dialErrs[i].Error()
			continue
		}
		defer rn.Close()
		nr.ID = rn.ID()
		if dialed[nr.ID] {
			nr.Err = fmt.Sprintf("duplicate node ID %q (already dialed at another address)", nr.ID)
			continue
		}
		dialed[nr.ID] = true
		nodes[i] = rn
		reachable++
	}
	var sum linalg.Vector
	var err error
	if reachable < opts.MinNodes {
		err = fmt.Errorf("only %d/%d nodes reachable (need %d)", reachable, len(addrs), opts.MinNodes)
	} else if sum, err = collect(ctx, nodes, spec, opts, r); err != nil {
		err = fmt.Errorf("cluster collection failed: %w", err)
	}
	for i, rn := range remotes {
		nr := &r.Nodes[i]
		if rn != nil {
			nr.Redials, nr.Bytes = int(rn.redials.Load()), rn.bytesRead.Load()+rn.bytesWritten.Load()
		}
		if nr.Err != "" {
			r.Failed = append(r.Failed, *nr)
		}
	}
	return sum, r, err
}

// collect asks every non-nil nodes[i] for its sketch in parallel, with
// retries, deadlines and straggler tolerance, and sums the answers in
// node order whatever order they arrive in, so one membership gives one
// set of bits. Its workers record each node in r.Nodes[i] (the ID
// already set, opts resolved); collect fills in r.Included and r.Stats.
// On return every worker has exited and every in-flight request has
// been cancelled, provided nodes honor ctx (NodeAPI's contract).
func collect(ctx context.Context, nodes []NodeAPI, spec sensing.Spec, opts Options, r *Round) (linalg.Vector, error) {
	// inner is cancelled the moment the collector decides to stop —
	// overall deadline or normal completion — so in-flight node.Sketch
	// calls unblock and their workers exit.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	ys := make([]linalg.Vector, len(nodes))
	// Buffered to len(nodes): a worker can always report and exit, even
	// after the collector stopped receiving.
	done := make(chan struct{}, len(nodes))
	asked := 0
	for i, node := range nodes {
		if node == nil {
			continue
		}
		asked++
		go func() {
			ys[i] = ask(inner, node, spec, opts, &r.Nodes[i])
			done <- struct{}{}
		}()
	}
	received, timedOut := 0, false
loop:
	for received < asked {
		select {
		case <-ctx.Done():
			timedOut = true
			break loop
		case <-done:
			received++
		}
	}
	// Stop every in-flight request and reap every worker: each one is
	// guaranteed a slot in the buffered channel.
	cancel()
	for ; received < asked; received++ {
		<-done
	}

	sum := make(linalg.Vector, spec.M)
	r.Stats = Stats{Rounds: 1}
	failures := make(map[string]string)
	for i, nr := range r.Nodes {
		if nodes[i] == nil {
			continue
		}
		r.Stats.Attempts += nr.Attempts
		r.Stats.Retries += nr.Retries
		r.Stats.Timeouts += nr.Timeouts
		if nr.Included {
			sensing.AddSketch(sum, ys[i])
			r.Included = append(r.Included, nr.ID)
			r.Stats.Bytes += sensing.SketchBytes(spec.M)
			r.Stats.Messages++
		} else {
			failures[nr.ID] = nr.Err
		}
	}
	sort.Strings(r.Included)
	if len(r.Included) < opts.MinNodes {
		if timedOut {
			return nil, fmt.Errorf("cluster: context done with %d/%d responses (need %d): %w",
				len(r.Included), asked, opts.MinNodes, ctx.Err())
		}
		return nil, fmt.Errorf("cluster: only %d/%d nodes responded (need %d); failures: %v",
			len(r.Included), asked, opts.MinNodes, failures)
	}
	return sum, nil
}

// ask is one node's worker: up to opts.MaxAttempts sketch exchanges, with
// jittered backoff between them, recorded in nr. It returns the sketch,
// or nil when no attempt produced one.
func ask(ctx context.Context, node NodeAPI, spec sensing.Spec, opts Options, nr *NodeReport) linalg.Vector {
	rng := xrand.New(opts.BackoffSeed).Split(backoffSeed(node.ID()))
	for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			nr.Retries++
			if xrand.SleepCtx(ctx, xrand.BackoffDelay(rng, attempt-1, retryBackoff, time.Second)) != nil {
				break
			}
		}
		if err := ctx.Err(); err != nil {
			if nr.Err == "" {
				nr.Err = err.Error()
			}
			break
		}
		actx, acancel := withTimeout(ctx, opts.NodeTimeout)
		start := time.Now()
		y, err := node.Sketch(actx, spec)
		nr.RTT = time.Since(start)
		nr.Attempts++
		acancel()
		if err == nil && len(y) != spec.M {
			err = fmt.Errorf("sketch length %d, want %d", len(y), spec.M)
		}
		if err == nil {
			nr.Included, nr.Err = true, ""
			return y
		}
		nr.Err = err.Error()
		if isTimeout(err) {
			nr.Timeouts++
		}
	}
	if nr.Err == "" {
		nr.Err = "cancelled before first attempt"
	}
	return nil
}

// withTimeout bounds ctx by d when d is positive.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// backoffSeed is a node's jitter stream label: a stable FNV-1a hash of
// its ID keeps distinct nodes decorrelated without global state.
func backoffSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
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
