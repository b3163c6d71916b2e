package csoutlier_test

import (
	"fmt"
	"log"

	"csoutlier"
)

// The basic three-step flow: sketch at each node, add at the
// aggregator, detect.
func ExampleSketcher_Detect() {
	keys := []string{"de-DE|web", "en-US|news", "en-US|web", "ja-JP|web"}
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{M: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	// Two nodes hold shares that cancel except for the true aggregate.
	y1, _ := sk.SketchPairs(map[string]float64{"en-US|web": 900, "ja-JP|web": -40, "de-DE|web": 60})
	y2, _ := sk.SketchPairs(map[string]float64{"en-US|web": 100, "ja-JP|web": 90, "de-DE|web": -10})
	global := sk.ZeroSketch()
	_ = global.Add(y1)
	_ = global.Add(y2)

	rep, err := sk.Detect(global, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s = %.0f\n", rep.Outliers[0].Key, rep.Outliers[0].Value)
	// Output: en-US|web = 1000
}

// Sketches ship as self-describing binary blobs; the receiver verifies
// integrity and consensus compatibility on decode.
func ExampleSketch_MarshalBinary() {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	sk, _ := csoutlier.NewSketcher(keys, csoutlier.Config{M: 3, Seed: 1})
	y, _ := sk.SketchPairs(map[string]float64{"c": 4})

	wire, _ := y.MarshalBinary() // → network / disk
	back, err := sk.UnmarshalSketch(wire)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(wire) > 0, len(back.Y) == 3)
	// Output: true true
}

// One recovery pass answers the related aggregation queries of the
// paper's introduction: sum, mean, percentiles.
func ExampleSketcher_Aggregate() {
	var keys []string
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	sk, _ := csoutlier.NewSketcher(keys, csoutlier.Config{M: 40, Seed: 3})
	pairs := map[string]float64{}
	for _, k := range keys {
		pairs[k] = 10
	}
	pairs["k42"] = 510 // one hot key
	y, _ := sk.SketchPairs(pairs)

	rep, err := sk.Aggregate(y, 0)
	if err != nil {
		log.Fatal(err)
	}
	med, _ := rep.Percentile(0.5)
	hi, _ := rep.Percentile(1)
	fmt.Printf("mode %.0f sum %.0f median %.0f max %.0f\n",
		rep.Mode(), rep.Sum(), med, hi)
	// Output: mode 10 sum 1500 median 10 max 510
}

// Standing sketches over a stream, with time windows.
func ExampleWindowStore() {
	var keys []string
	for i := 0; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	sk, _ := csoutlier.NewSketcher(keys, csoutlier.Config{M: 25, Seed: 9})
	ws, _ := sk.NewWindowStore(3)

	hour1, _ := sk.SketchPairs(map[string]float64{"k07": 800})
	_ = ws.AddSketch(0, hour1)
	ws.Rotate()
	hour2, _ := sk.SketchPairs(map[string]float64{"k07": 100})
	_ = ws.AddSketch(0, hour2)

	lastTwoHours, _ := ws.Range(0, 1)
	rep, _ := sk.Detect(lastTwoHours, 1)
	fmt.Printf("%s = %.0f\n", rep.Outliers[0].Key, rep.Outliers[0].Value)
	// Output: k07 = 900
}
