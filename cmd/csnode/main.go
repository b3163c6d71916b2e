// Command csnode serves one data node (one "data center") of the
// distributed outlier-detection deployment: it loads a local data slice,
// vectorizes it against a global key dictionary, and answers
// sketch/sample/outlier requests from a csagg aggregator over TCP.
//
// Usage (pre-aggregated key,value slice):
//
//	csnode -listen :7001 -dict keys.txt -data slice.csv -name dc-west
//
// Usage (raw click logs, aggregated on the fly with the paper's GROUP BY
// template — the first CSV line names the columns, one of which must be
// "Score"):
//
//	csnode -listen :7001 -dict keys.txt -data clicks.csv -groupby Market,Vertical
//
// The dictionary file holds one key per line, sorted (composite keys for
// the raw mode: GROUP BY values joined with "|"). All nodes of one
// deployment must use the same dictionary file.
//
// Streaming mode: with -push, the node additionally streams its slice
// into a csstreamd aggregator as window-tagged sketch deltas — observing
// -push-chunk keys at a time, flushing a delta every -push-every — while
// still serving the pull API. The sketch consensus (-m, -seed,
// -ensemble) must match the daemon's:
//
//	csnode -listen :7001 -dict keys.txt -data slice.csv \
//	       -push agg:7100 -m 500 -push-every 2s
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"csoutlier"
	"csoutlier/internal/cluster"
	"csoutlier/internal/keydict"
	"csoutlier/internal/linalg"
	"csoutlier/internal/obs"
	"csoutlier/internal/sensing"
	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
)

func main() {
	var (
		listen   = flag.String("listen", ":7001", "address to serve on")
		dictPath = flag.String("dict", "", "global key dictionary file (one key per line, sorted)")
		dataPath = flag.String("data", "", "local data CSV: key,value lines, or raw logs with -groupby")
		groupBy  = flag.String("groupby", "", "comma-separated GROUP BY columns; switches -data to raw-log mode")
		name     = flag.String("name", "", "node name (default: listen address)")
		idleTO   = flag.Duration("idle-timeout", 0, "drop connections idle for this long (0 = never)")
		reqTO    = flag.Duration("request-timeout", 0, "per-request handling budget (0 = unbounded)")

		push       = flag.String("push", "", "stream deltas to a csstreamd aggregator at this address")
		pushEvery  = flag.Duration("push-every", 2*time.Second, "delay between delta flushes in -push mode (also the heartbeat period once the slice is drained)")
		pushChunk  = flag.Int("push-chunk", 256, "keys observed per delta flush in -push mode")
		m          = flag.Int("m", 0, "measurement count M for -push mode (must match the daemon)")
		seed       = flag.Uint64("seed", 42, "consensus measurement seed for -push mode")
		ensemble   = flag.String("ensemble", "gaussian", "measurement ensemble for -push mode: gaussian or countsketch")
		depth      = flag.Int("depth", 0, "hash-row count for -ensemble countsketch, in [1,64] (0 = 5)")
		epoch      = flag.Uint64("epoch", 1, "incarnation number for -push mode; bump after a restart so the daemon resets this node's sequence space")
		pushShed   = flag.Int("push-shed-at", 8, "pending-frame threshold where new captures merge into the newest pending frame instead of queueing (admission control; 0 = refuse at the queue cap instead)")
		pushRetain = flag.Int("push-retain", 1024, "acked frames retained for replay after an aggregator restore (-1 = none: a restore may silently lose recent deltas)")
		shards     = flag.Int("shards", 1, "push into a sharded deployment: -push takes this many comma-separated per-shard addresses, keys route to their owning shard")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address (empty = off)")
	)
	flag.Parse()
	if *dictPath == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "csnode: -dict and -data are required")
		os.Exit(2)
	}
	if *name == "" {
		*name = *listen
	}

	dict, err := loadDict(*dictPath)
	if err != nil {
		log.Fatalf("csnode: %v", err)
	}
	var x linalg.Vector
	if *groupBy != "" {
		x, err = loadRawLogs(dict, *dataPath, strings.Split(*groupBy, ","))
	} else {
		x, err = loadSlice(dict, *dataPath)
	}
	if err != nil {
		log.Fatalf("csnode: %v", err)
	}
	node := cluster.NewLocalNode(*name, x)

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		mln, err := obs.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatalf("csnode: metrics: %v", err)
		}
		defer mln.Close()
		log.Printf("csnode metrics on http://%s/metrics", mln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("csnode: listen: %v", err)
	}
	log.Printf("csnode %q serving %d keys on %s", *name, dict.N(), ln.Addr())
	if *push != "" {
		if *m <= 0 {
			fmt.Fprintln(os.Stderr, "csnode: -push requires -m (the daemon's sketch length)")
			os.Exit(2)
		}
		ens, err := sensing.ParseKind(*ensemble)
		if err != nil {
			log.Fatalf("csnode: %v", err)
		}
		opts := stream.NodeOptions{
			Epoch:  *epoch,
			ShedAt: *pushShed,
			Retain: *pushRetain,
		}
		if *shards > 1 {
			addrs := strings.Split(*push, ",")
			if len(addrs) != *shards {
				log.Fatalf("csnode: -shards %d needs that many comma-separated -push addresses, got %d", *shards, len(addrs))
			}
			shardMap, err := tier.NewShardMap(dict.Keys(), *shards, tier.Spec{
				M: *m, BaseSeed: *seed, Ensemble: ens, Depth: *depth,
			}, 1)
			if err != nil {
				log.Fatalf("csnode: %v", err)
			}
			sks, err := shardMap.Sketchers()
			if err != nil {
				log.Fatalf("csnode: %v", err)
			}
			go pushSliceSharded(shardMap, sks, dict, x, addrs, *name, opts, *pushEvery, *pushChunk)
		} else {
			sk, err := csoutlier.NewSketcher(dict.Keys(), csoutlier.Config{
				M: *m, Seed: *seed, Ensemble: ens, Depth: *depth,
			})
			if err != nil {
				log.Fatalf("csnode: %v", err)
			}
			go pushSlice(sk, dict, x, *push, *name, opts, *pushEvery, *pushChunk, reg)
		}
	}
	if err := cluster.ServeWith(ln, node, cluster.ServeOptions{
		IdleTimeout:    *idleTO,
		RequestTimeout: *reqTO,
	}); err != nil {
		log.Fatalf("csnode: serve: %v", err)
	}
}

// pushSlice streams the loaded slice into a csstreamd aggregator as a
// sequence of delta frames — pushChunk keys per flush, one flush per
// pushEvery — then keeps heartbeating so the daemon's liveness table
// and this node's window view stay fresh. Runs alongside the pull API:
// the same slice is available both ways.
func pushSlice(sk *csoutlier.Sketcher, dict *keydict.Dictionary, x linalg.Vector,
	addr, name string, opts stream.NodeOptions, pushEvery time.Duration, pushChunk int, reg *obs.Registry) {
	if pushChunk <= 0 {
		pushChunk = 256
	}
	ctx := context.Background()
	n, err := stream.Dial(ctx, addr, sk, name, opts)
	if err != nil {
		log.Printf("csnode: push: %v (streaming disabled, pull API unaffected)", err)
		return
	}
	if reg != nil {
		n.RegisterMetrics(reg)
	}
	log.Printf("csnode: pushing to %s as %q (epoch %d, window %d)", addr, name, opts.Epoch, n.Window())
	inChunk := 0
	for idx, v := range x {
		if v == 0 {
			continue
		}
		if err := n.Observe(dict.Key(idx), v); err != nil {
			log.Printf("csnode: push observe: %v", err)
			return
		}
		if inChunk++; inChunk >= pushChunk {
			inChunk = 0
			if err := n.Flush(ctx); err != nil {
				log.Printf("csnode: push flush: %v", err)
			}
			time.Sleep(pushEvery)
		}
	}
	if err := n.Flush(ctx); err != nil {
		log.Printf("csnode: push flush: %v", err)
	}
	s := n.Stats()
	log.Printf("csnode: slice streamed: %d deltas captured (%d shed-merged, %d sent as pairs), %d applied, %d replayed, %d redials; heartbeating every %v",
		s.Captured, s.Merged, s.PairFrames, s.Applied, s.Replayed, s.Redials, pushEvery)
	for {
		time.Sleep(pushEvery)
		if err := n.Sync(ctx); err != nil {
			log.Printf("csnode: push heartbeat: %v", err)
		}
	}
}

// pushSliceSharded is pushSlice for a sharded deployment: one
// connection set over every shard's daemon, each key observed at its
// owning shard, flushes and heartbeats fanned out in shard order. The
// per-node stream_client_* metrics are skipped — the per-shard nodes
// would collide in one registry.
func pushSliceSharded(m *tier.ShardMap, sks []*csoutlier.Sketcher, dict *keydict.Dictionary, x linalg.Vector,
	addrs []string, name string, opts stream.NodeOptions, pushEvery time.Duration, pushChunk int) {
	if pushChunk <= 0 {
		pushChunk = 256
	}
	ctx := context.Background()
	sn, err := tier.DialSharded(ctx, m, sks, addrs, name, opts)
	if err != nil {
		log.Printf("csnode: push: %v (streaming disabled, pull API unaffected)", err)
		return
	}
	log.Printf("csnode: pushing to %d shards as %q (epoch %d)", m.Shards(), name, opts.Epoch)
	inChunk := 0
	for idx, v := range x {
		if v == 0 {
			continue
		}
		if err := sn.Observe(dict.Key(idx), v); err != nil {
			log.Printf("csnode: push observe: %v", err)
			return
		}
		if inChunk++; inChunk >= pushChunk {
			inChunk = 0
			if err := sn.Flush(ctx); err != nil {
				log.Printf("csnode: push flush: %v", err)
			}
			time.Sleep(pushEvery)
		}
	}
	if err := sn.Flush(ctx); err != nil {
		log.Printf("csnode: push flush: %v", err)
	}
	var captured, applied, replayed, redials int64
	for i := 0; i < m.Shards(); i++ {
		s := sn.Node(i).Stats()
		captured += s.Captured
		applied += s.Applied
		replayed += s.Replayed
		redials += s.Redials
	}
	log.Printf("csnode: slice streamed across %d shards: %d deltas captured, %d applied, %d replayed, %d redials; heartbeating every %v",
		m.Shards(), captured, applied, replayed, redials, pushEvery)
	for {
		time.Sleep(pushEvery)
		if err := sn.Sync(ctx); err != nil {
			log.Printf("csnode: push heartbeat: %v", err)
		}
	}
}

func loadDict(path string) (*keydict.Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return keydict.Read(f)
}

func loadSlice(dict *keydict.Dictionary, path string) (linalg.Vector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	x := make(linalg.Vector, dict.N())
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		i := strings.LastIndexByte(text, ',')
		if i < 0 {
			return nil, fmt.Errorf("%s:%d: no comma in %q", path, line, text)
		}
		key := text[:i]
		v, err := strconv.ParseFloat(strings.TrimSpace(text[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad value: %v", path, line, err)
		}
		idx, ok := dict.Index(key)
		if !ok {
			return nil, fmt.Errorf("%s:%d: key %q not in dictionary", path, line, key)
		}
		x[idx] += v // partial aggregation, like the paper's mappers
	}
	return x, sc.Err()
}

// loadRawLogs reads raw click logs (CSV with a header row, a "Score"
// column, and arbitrary attribute columns), runs the paper's GROUP BY
// aggregation through the public query front-end, and vectorizes the
// result against the shared dictionary.
func loadRawLogs(dict *keydict.Dictionary, path string, groupBy []string) (linalg.Vector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(bufio.NewReader(f))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%s: header: %w", path, err)
	}
	scoreCol := -1
	for i, h := range header {
		if h == "Score" {
			scoreCol = i
		}
	}
	if scoreCol < 0 {
		return nil, fmt.Errorf("%s: no Score column in header %v", path, header)
	}
	var recs []csoutlier.LogRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		score, err := strconv.ParseFloat(strings.TrimSpace(row[scoreCol]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad score: %w", path, line, err)
		}
		attrs := make(map[string]string, len(header)-1)
		for i, h := range header {
			if i != scoreCol {
				attrs[h] = row[i]
			}
		}
		recs = append(recs, csoutlier.LogRecord{Attrs: attrs, Score: score})
	}
	q := &csoutlier.OutlierQuery{K: 1, GroupBy: groupBy}
	pairs, err := q.AggregateNode(recs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dict.Vectorize(pairs)
}
