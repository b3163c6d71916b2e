// Command csnode serves one data node (one "data center") of the
// distributed outlier-detection deployment: it loads a local data slice,
// vectorizes it against a global key dictionary, and answers sketch
// requests from a csagg aggregator over TCP.
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
// into csstreamd as window-tagged sketch deltas — observing -push-chunk
// keys at a time, flushing a delta every -push-every — while still
// serving the pull API. -push names one daemon per key-range shard,
// comma-separated in shard order (one address: a flat deployment, a
// tree of one shard), and each key is pushed to its owner. The sketch
// consensus (-m, -seed, -ensemble) must match the daemons':
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
	"slices"
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

		push      = flag.String("push", "", "stream deltas to csstreamd: one address per key-range shard, comma-separated in shard order")
		pushEvery = flag.Duration("push-every", 2*time.Second, "delay between delta flushes in -push mode (also the heartbeat period once the slice is drained)")
		pushChunk = flag.Int("push-chunk", 256, "keys observed per delta flush in -push mode")
		m         = flag.Int("m", 0, "measurement count M for -push mode (must match the daemon)")
		seed      = flag.Uint64("seed", 42, "consensus measurement seed for -push mode")
		ensemble  = flag.String("ensemble", "gaussian", "measurement ensemble for -push mode: gaussian or countsketch")
		depth     = flag.Int("depth", 0, "hash-row count for -ensemble countsketch, in [1,64] (0 = 5)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address (empty = off)")
	)
	flag.Parse()
	if *dictPath == "" || *dataPath == "" || *pushChunk < 1 || *pushEvery <= 0 {
		fmt.Fprintln(os.Stderr, "csnode: -dict and -data are required, -push-chunk must be ≥ 1 and -push-every > 0")
		os.Exit(2)
	}
	var addrs []string
	if *push != "" {
		if addrs = strings.Split(*push, ","); slices.Contains(addrs, "") || *m <= 0 {
			fmt.Fprintln(os.Stderr, "csnode: -push takes one non-empty address per shard and requires -m (the daemons' sketch length)")
			os.Exit(2)
		}
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
	var shardMap *tier.ShardMap
	var sks []*csoutlier.Sketcher
	if *push != "" {
		ens, err := sensing.ParseKind(*ensemble)
		if err != nil {
			log.Fatalf("csnode: %v", err)
		}
		if shardMap, err = tier.NewShardMap(dict.Keys(), len(addrs), tier.Spec{M: *m, BaseSeed: *seed, Ensemble: ens, Depth: *depth}, 1); err != nil {
			log.Fatalf("csnode: %v", err)
		}
		if sks, err = shardMap.Sketchers(); err != nil {
			log.Fatalf("csnode: %v", err)
		}
	}

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
	if shardMap != nil {
		go func() {
			sn, err := tier.DialSharded(context.Background(), shardMap, sks, addrs, *name, stream.NodeOptions{})
			if err != nil {
				log.Printf("csnode: push: %v (streaming disabled, pull API unaffected)", err)
				return
			}
			// One shard's stream_client_* families; more would collide in
			// one registry.
			if reg != nil && shardMap.Shards() == 1 {
				sn.Node(0).RegisterMetrics(reg)
			}
			st := sn.Node(0).Stats()
			log.Printf("csnode: pushing to %s as %q (epoch %d, window %d on shard 0 of %d)", *push, *name, st.Epoch, st.Window, shardMap.Shards())
			pushSlice(sn, shardMap.Shards(), dict, x, *pushEvery, *pushChunk)
		}()
	}
	if err := cluster.ServeWith(ln, node, cluster.ServeOptions{IdleTimeout: *idleTO}); err != nil {
		log.Fatalf("csnode: serve: %v", err)
	}
}

// pushSlice streams the loaded slice through a push node as a sequence
// of delta frames — pushChunk keys per flush, one flush per pushEvery —
// then logs each shard's totals and keeps heartbeating so the daemons'
// liveness tables and this node's window view stay fresh. Runs
// alongside the pull API: the same slice is available both ways.
func pushSlice(n *tier.ShardedNode, shards int, dict *keydict.Dictionary, x linalg.Vector, pushEvery time.Duration, pushChunk int) {
	ctx := context.Background()
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
	for i := 0; i < shards; i++ {
		s := n.Node(i).Stats()
		log.Printf("csnode: slice streamed to shard %d: %d deltas captured (%d sent as pairs), %d applied, %d replayed, %d redials",
			i, s.Captured, s.PairFrames, s.Applied, s.Replayed, s.Redials)
	}
	log.Printf("csnode: heartbeating every %v", pushEvery)
	for {
		time.Sleep(pushEvery)
		if err := n.Sync(ctx); err != nil {
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
// aggregation (query.go), and vectorizes the result against the shared
// dictionary.
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
	var recs []logRecord
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
		recs = append(recs, logRecord{attrs: attrs, score: score})
	}
	pairs, err := aggregateNode(groupBy, recs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dict.Vectorize(pairs)
}
