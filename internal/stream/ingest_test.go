package stream

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csoutlier"
)

// foldCount returns how many copies of unit the sketch s holds, failing
// the test when s is not a whole multiple of unit — a torn read, which
// would be off by at least one unit entry in some cell (the tolerance
// only absorbs the rounding of repeated float adds).
func foldCount(t *testing.T, what string, s, unit csoutlier.Sketch) float64 {
	t.Helper()
	j := 0
	for unit.Y[j] == 0 {
		j++
	}
	k := math.Round(s.Y[j] / unit.Y[j])
	for i := range s.Y {
		if math.Abs(s.Y[i]-k*unit.Y[i]) > 1e-9*(1+k) {
			t.Fatalf("%s torn: Y[%d]=%v, want %v·%v", what, i, s.Y[i], k, unit.Y[i])
		}
	}
	return k
}

// ringCount is foldCount summed over every window the ring holds.
func ringCount(t *testing.T, agg *Aggregator, unit csoutlier.Sketch) float64 {
	t.Helper()
	var mass float64
	for age := 0; age < agg.AvailableWindows(); age++ {
		w, err := agg.WindowSketch(age)
		if err != nil {
			t.Fatalf("WindowSketch(%d): %v", age, err)
		}
		mass += foldCount(t, fmt.Sprintf("window age %d", age), w, unit)
	}
	return mass
}

// TestConcurrentIngestConservation pins what the single folder
// goroutine used to give by construction, now that every connection
// decodes and folds on its own handler goroutine (run under -race):
// eight connections push the same delta concurrently over loopback —
// half of them, on the Gaussian matrix, as a pairs frame their handlers
// measure in parallel — each re-sending every tenth frame, while
// windows rotate and span queries,
// snapshots and (count-sketch) point queries run. Every frame is
// accounted exactly once — in the aggregator's counters, in its node's
// book, and in the ring — every snapshot's ring matches its own dedup
// books, and after a Close that cuts the pushers off mid-stream every
// frame a pusher saw acked is in the ring.
func TestConcurrentIngestConservation(t *testing.T) {
	const (
		conns  = 8
		frames = 120 // per connection, before the Close phase
		every  = 10  // re-send every tenth frame
	)
	allOnes := make(map[string]float64, 64)
	for i := 0; i < 64; i++ {
		allOnes[fmt.Sprintf("key%03d", i)] = 1
	}
	for _, tc := range []struct {
		name string
		sk   *csoutlier.Sketcher
	}{
		{"gaussian", testSketcher(t, 64, 32, 3)},
		{"countsketch", testCountSketcher(t, 64, 35, 5, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.sk
			// Gaussian: even connections push a sketch frame, odd ones the
			// same eight observations as a pairs frame, measured by their
			// handlers outside the lock into the unit's exact bits.
			payloads := [2][]byte{uniformDelta(t, sk, 1)}
			if sk.SupportsPointQuery() {
				payloads[0] = pairsDelta(t, sk, allOnes) // point answers that mean something: every key reads the fold count
			} else {
				u := sk.NewUpdater()
				for i := 0; i < 8; i++ {
					if err := u.Observe(fmt.Sprintf("key%03d", 7*i), float64(i+1)); err != nil {
						t.Fatal(err)
					}
				}
				payloads[0], _ = u.Sketch().MarshalBinary()
				if payloads[1], _, _ = u.DrainEncoded(nil); !csoutlier.PairsEncoded(payloads[1]) {
					t.Fatal("eight observations did not drain as pairs")
				}
			}
			unit, err := csoutlier.DecodeSketch(payloads[0])
			if err != nil {
				t.Fatal(err)
			}
			// 32 ring slots and 20 racing rotations: nothing is dropped.
			agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 32, Durable: true})

			// A pusher is one connection and one node. It pushes until it has
			// `limit` frames acked as applied (0 = until the connection
			// fails) and returns how many that was.
			var phase2Acked atomic.Int64
			pusher := func(c *Client, i int, seq *uint64, limit int) (acked int) {
				node, payload := fmt.Sprintf("n%d", i), payloads[0]
				if payloads[1] != nil && i%2 == 1 {
					payload = payloads[1]
				}
				window := uint64(1)
				for limit == 0 || acked < limit {
					*seq++
					ack, err := c.PushDelta(node, 1, window, *seq, 1, payload)
					if err != nil {
						return acked
					}
					if ack.Err != "" || !ack.Applied {
						t.Errorf("%s seq %d: %+v", node, *seq, ack)
						return acked
					}
					acked++
					window = ack.Window
					if limit == 0 {
						phase2Acked.Add(1)
					} else if *seq%every == 0 {
						if dup, err := c.PushDelta(node, 1, window, *seq, 1, payload); err != nil || dup.Status != StatusDuplicate {
							t.Errorf("%s re-sent seq %d: %+v, %v", node, *seq, dup, err)
							return acked
						}
					}
				}
				return acked
			}
			clients := make([]*Client, conns)
			seqs := make([]uint64, conns)
			for i := range clients {
				c, err := DialClient(context.Background(), addr, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}

			stop := make(chan struct{})
			var halt sync.Once
			defer halt.Do(func() { close(stop) })
			var bg, push sync.WaitGroup
			background := func(fn func(i int) error) {
				bg.Add(1)
				go func() {
					defer bg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := fn(i); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			background(func(i int) error { // rotation clock
				if i < 20 {
					agg.Rotate()
				}
				time.Sleep(time.Millisecond)
				return nil
			})
			background(func(i int) error { // standing span query
				_, err := agg.Outliers(0, i%agg.AvailableWindows(), 3)
				return err
			})
			if sk.SupportsPointQuery() {
				keys := sk.Keys()
				background(func(i int) error { // watch list: one consistent cut per call
					answers, err := agg.PointQueryMulti(0, i%agg.AvailableWindows(), keys, 0.5)
					if err != nil {
						return err
					}
					for _, ans := range answers {
						if math.Abs(ans.Value-answers[0].Value) > 1e-6 || ans.Outlier || math.Abs(ans.Value-math.Round(ans.Value)) > 1e-6 {
							return fmt.Errorf("watch list is not one cut of an integral fold count: %+v vs %+v", ans, answers[0])
						}
					}
					return nil
				})
			}
			for i := range clients {
				push.Add(1)
				go func(i int) {
					defer push.Done()
					pusher(clients[i], i, &seqs[i], frames)
				}(i)
			}
			// Snapshots on this goroutine, so a torn one fails the test at once.
			for i := 0; i < 40; i++ {
				snap, err := agg.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot %d: %v", i, err)
				}
				data, err := snap.MarshalBinary()
				if err != nil {
					t.Fatalf("MarshalBinary %d: %v", i, err)
				}
				dec, err := DecodeSnapshot(data)
				if err != nil {
					t.Fatalf("DecodeSnapshot %d: %v", i, err)
				}
				var mass float64
				for w, b := range dec.Windows {
					s, err := csoutlier.DecodeSketch(b)
					if err != nil {
						t.Fatalf("snapshot %d window %d: %v", i, w, err)
					}
					mass += foldCount(t, fmt.Sprintf("snapshot %d window %d", i, w), s, unit)
				}
				var booked uint64
				for _, sn := range dec.Nodes {
					booked += sn.Base + uint64(len(sn.Ahead))
					if uint64(sn.Applied) != sn.Base+uint64(len(sn.Ahead)) {
						t.Fatalf("snapshot %d: node %s Applied=%d but its book covers %d seqs", i, sn.Node, sn.Applied, sn.Base+uint64(len(sn.Ahead)))
					}
				}
				if mass != float64(booked) {
					t.Fatalf("snapshot %d: ring holds %v frames but the dedup books cover %d", i, mass, booked)
				}
			}
			push.Wait()
			halt.Do(func() { close(stop) })
			bg.Wait()
			if t.Failed() {
				return
			}

			st := agg.Stats()
			if st.Frames != st.Applied+st.Duplicates+st.Dropped+st.Rejected {
				t.Fatalf("Frames=%d ≠ Applied+Duplicates+Dropped+Rejected = %d+%d+%d+%d", st.Frames, st.Applied, st.Duplicates, st.Dropped, st.Rejected)
			}
			if st.Applied != conns*frames || st.Duplicates != conns*frames/every || st.Dropped != 0 || st.Rejected != 0 {
				t.Fatalf("applied/duplicates/dropped/rejected = %d/%d/%d/%d, want %d/%d/0/0", st.Applied, st.Duplicates, st.Dropped, st.Rejected, conns*frames, conns*frames/every)
			}
			for _, ns := range agg.Nodes() {
				if ns.Applied != frames || ns.Duplicates != frames/every {
					t.Fatalf("node %s: Applied=%d Duplicates=%d, want %d/%d", ns.Node, ns.Applied, ns.Duplicates, frames, frames/every)
				}
			}
			if mass := ringCount(t, agg, unit); mass != conns*frames {
				t.Fatalf("ring holds %v frames, want %d", mass, conns*frames)
			}

			// Close under load: the pushers run until their connections die.
			acked := make([]int, conns)
			for i := range clients {
				push.Add(1)
				go func(i int) {
					defer push.Done()
					acked[i] = pusher(clients[i], i, &seqs[i], 0)
				}(i)
			}
			for deadline := time.Now().Add(10 * time.Second); phase2Acked.Load() < 5*conns; {
				if time.Now().After(deadline) {
					t.Fatal("pushers made no progress before Close")
				}
				time.Sleep(100 * time.Microsecond)
			}
			if err := agg.Close(context.Background()); err != nil {
				t.Fatalf("Close: %v", err)
			}
			push.Wait()
			// Close has waited for every handler, so the books are final: a
			// frame is in the ring iff it was counted applied, and an acked
			// frame is always both (a folded frame whose ack was cut off is
			// the only slack, and the node would replay it as a duplicate).
			st = agg.Stats()
			mass := ringCount(t, agg, unit)
			if mass != float64(st.Applied) || st.Frames != st.Applied+st.Duplicates+st.Dropped+st.Rejected {
				t.Fatalf("after Close: ring holds %v frames, Applied=%d, Frames=%d", mass, st.Applied, st.Frames)
			}
			for i, ns := range agg.Nodes() {
				sent := int64(frames + acked[i])
				if ns.Applied < sent || ns.Applied > sent+1 {
					t.Fatalf("after Close: node %s has %d frames applied, its pusher saw %d acked", ns.Node, ns.Applied, sent)
				}
			}
		})
	}
}

// windowBits is every window of agg's ring, oldest first.
func windowBits(t *testing.T, agg *Aggregator) []csoutlier.Sketch {
	t.Helper()
	var out []csoutlier.Sketch
	for age := agg.AvailableWindows() - 1; age >= 0; age-- {
		w, err := agg.WindowSketch(age)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// TestDecodeBeforeLockKeepsAckOrder: a handler decodes a delta before it
// takes ingest.mu, but a payload that does not decode is refused where
// it always was — after admission, the seq checks and window placement.
// A corrupt payload on a frame an earlier check settles gets that
// check's ack, one on a fresh frame gets its decode error, and no
// refusal changes a window, even though the connection's scratch still
// holds the last good delta.
func TestDecodeBeforeLockKeepsAckOrder(t *testing.T) {
	sk := testSketcher(t, 64, 32, 3)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close(context.Background())
	var delta csoutlier.Sketch // one connection's scratch throughout
	if ack := agg.apply(pushRequest{Kind: pushDelta, Node: "n", Epoch: 2, Window: 1, Seq: 1, Payload: uniformDelta(t, sk, 1)}, &delta); !ack.Applied {
		t.Fatalf("seed frame: %+v", ack)
	}
	agg.Rotate()
	if ack := agg.apply(pushRequest{Kind: pushDelta, Node: "n", Epoch: 2, Window: 2, Seq: 2, Payload: uniformDelta(t, sk, 2)}, &delta); !ack.Applied {
		t.Fatalf("seed frame: %+v", ack)
	}
	agg.Rotate() // window 3 is open, window 1 has left the 2-window ring
	before := windowBits(t, agg)

	badCRC := uniformDelta(t, sk, 3)
	badCRC[30] ^= 0x08
	nan := sk.ZeroSketch()
	nan.Y[5] = math.NaN()
	nanPayload, _ := nan.MarshalBinary()
	corrupt := map[string][]byte{
		"bad checksum": badCRC,
		"NaN":          nanPayload,
		"index N":      rawPairs(t, sk, pairsBody(1, []uint64{uint64(sk.N())}, []float64{1})),
	}
	seq := uint64(10)
	for what, payload := range corrupt {
		for _, c := range []struct {
			name   string
			epoch  uint64
			window uint64
			seq    uint64
			status string // want Status, when the ack is not an error
			err    string // want in Err
		}{
			{"duplicate seq", 2, 3, 1, StatusDuplicate, ""},
			{"too-old window", 2, 1, seq, StatusDroppedOld, ""},
			{"future window", 2, 4, seq + 1, "", "is ahead of"},
			{"seq 0", 2, 3, 0, "", "number from seq 1"},
			{"stale epoch", 1, 3, seq + 1, "", "is stale"},
			{"fresh frame", 2, 3, seq + 1, "", "delta seq"},
		} {
			ack := agg.apply(pushRequest{Kind: pushDelta, Node: "n", Epoch: c.epoch, Window: c.window, Seq: c.seq, Payload: payload}, &delta)
			if ack.Applied || ack.Status != c.status || !strings.Contains(ack.Err, c.err) || (c.err == "") != (ack.Err == "") {
				t.Fatalf("%s payload, %s: ack %+v, want status %q and an error containing %q", what, c.name, ack, c.status, c.err)
			}
			for i, w := range windowBits(t, agg) {
				sameBits(t, fmt.Sprintf("%s payload, %s: window %d", what, c.name, i), w, before[i])
			}
		}
		seq += 2
	}
	ns := agg.Nodes()[0]
	if ns.Applied != 2 || ns.Duplicates != 3 || ns.Dropped != 3 || ns.Rejected != 9 {
		t.Fatalf("node books %+v, want 2 applied, 3 duplicates, 3 dropped, 9 rejected (a stale epoch is refused before the node's books)", ns)
	}
}

// TestOverflowingDeltaRefused: a delta of finite floats whose sum with
// its window would reach ±Inf is acked with Err, counted in Rejected and
// leaves the window as it was, for either sign; the next delta that
// fits folds as usual. Quarantine, not clamping: the window stays a
// finite, exact sum of the deltas it accepted.
func TestOverflowingDeltaRefused(t *testing.T) {
	sk := testSketcher(t, 64, 32, 3)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 2})
	c, err := DialClient(context.Background(), addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seq := uint64(0)
	push := func(v float64) Ack {
		t.Helper()
		seq++
		ack, err := c.PushDelta("n", 1, 1, seq, 1, uniformDelta(t, sk, v))
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}
	var rejected int64
	for _, huge := range []float64{math.MaxFloat64, -math.MaxFloat64} {
		if ack := push(huge); !ack.Applied {
			t.Fatalf("first %v: %+v", huge, ack)
		}
		before, _ := agg.WindowSketch(0)
		if ack := push(huge); ack.Applied || !strings.Contains(ack.Err, "would be") {
			t.Fatalf("second %v: %+v, want the overflow refused", huge, ack)
		}
		rejected++
		after, _ := agg.WindowSketch(0)
		sameBits(t, "window after a refused overflow", after, before)
		if st := agg.Stats(); st.Rejected != rejected || agg.Nodes()[0].Rejected != rejected {
			t.Fatalf("Rejected = %d (node %d), want %d", st.Rejected, agg.Nodes()[0].Rejected, rejected)
		}
		if ack := push(-huge); !ack.Applied { // back to zero
			t.Fatalf("%v after the refusal: %+v", -huge, ack)
		}
	}
	w, _ := agg.WindowSketch(0)
	sameBits(t, "window after ±Max and back", w, sk.ZeroSketch())
}
