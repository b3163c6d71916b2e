package stream

import (
	"context"
	"fmt"
	"math"
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
// folds on its own handler goroutine (run under -race): eight
// connections push the same delta concurrently over loopback, each
// re-sending every tenth frame, while windows rotate and span queries,
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
			payload := uniformDelta(t, sk, 1)
			if sk.SupportsPointQuery() {
				payload = pairsDelta(t, sk, allOnes) // point answers that mean something: every key reads the fold count
			}
			unit, err := csoutlier.DecodeSketch(payload)
			if err != nil {
				t.Fatal(err)
			}
			// 32 ring slots and 20 racing rotations: nothing is dropped.
			agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 32, Durable: true})

			// A pusher is one connection and one node. It pushes until it has
			// `limit` frames acked as applied (0 = until the connection
			// fails) and returns how many that was.
			var phase2Acked atomic.Int64
			pusher := func(c *Client, node string, seq *uint64, limit int) (acked int) {
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
					pusher(clients[i], fmt.Sprintf("n%d", i), &seqs[i], frames)
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
					acked[i] = pusher(clients[i], fmt.Sprintf("n%d", i), &seqs[i], 0)
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
