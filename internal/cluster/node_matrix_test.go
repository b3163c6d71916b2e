package cluster

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// TestLocalNodeSketchSteadyStateAllocs pins what a round costs a node
// that has served the spec before: the returned sketch and nothing else.
func TestLocalNodeSketchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // serial kernels: no fan-out closures
	spec := sensing.GaussianSpec(sensing.Params{M: 320, N: 2000, Seed: 1})
	x := make(linalg.Vector, spec.N)
	for i := range x {
		x[i] = float64(i % 17)
	}
	node := NewLocalNode("dc", x)
	ctx := context.Background()
	if _, err := node.Sketch(ctx, spec); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := node.Sketch(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("steady-state LocalNode.Sketch allocates %.1f objects/op, want 1 (the sketch)", allocs)
	}
}

// TestLocalNodeBuildsMatrixOnce: N concurrent first requests for one
// spec share one Φ₀, and a different spec replaces it.
func TestLocalNodeBuildsMatrixOnce(t *testing.T) {
	spec := sensing.GaussianSpec(sensing.Params{M: 40, N: 300, Seed: 5})
	node := NewLocalNode("dc", make(linalg.Vector, spec.N))
	const callers = 8
	got := make([]sensing.Matrix, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := node.matrix(spec)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if m != got[0] {
			t.Fatalf("caller %d got its own matrix", i)
		}
	}
	other := spec
	other.Seed++
	m2, err := node.matrix(other)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == got[0] {
		t.Fatal("a different spec was served the held matrix")
	}
	if m3, _ := node.matrix(other); m3 != m2 {
		t.Fatal("the replacing matrix was not held")
	}
	if _, err := node.matrix(sensing.Spec{Params: spec.Params, Kind: 99}); err == nil {
		t.Fatal("unknown ensemble accepted")
	}
	if m4, _ := node.matrix(other); m4 != m2 {
		t.Fatal("a failed build dropped the held matrix")
	}
}

// TestLocalNodeSketchConsistentUnderUpdate (-race): concurrent Sketch
// calls alternating between two specs, interleaved with Updates, always
// return Φ₀(spec)·x for one of the x the node has held.
func TestLocalNodeSketchConsistentUnderUpdate(t *testing.T) {
	const n, updates = 200, 12
	specs := []sensing.Spec{
		sensing.GaussianSpec(sensing.Params{M: 32, N: n, Seed: 21}),
		{Params: sensing.Params{M: 48, N: n, Seed: 22}, Kind: sensing.KindCountSketch, D: 3},
	}
	x := make(linalg.Vector, n)
	for i := range x {
		x[i] = float64(i%7) + 1
	}
	delta := make(linalg.Vector, n)
	for i := range delta {
		delta[i] = float64(i%3) + 1
	}
	// want[s][u] is the sketch under specs[s] after u updates.
	want := make([][]linalg.Vector, len(specs))
	for s, spec := range specs {
		m, err := sensing.New(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur := x.Clone()
		for u := 0; u <= updates; u++ {
			want[s] = append(want[s], m.Measure(cur, nil))
			cur.Add(delta)
		}
	}
	node := NewLocalNode("dc", x.Clone())
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := i % len(specs)
				y, err := node.Sketch(ctx, specs[s])
				if err != nil {
					t.Error(err)
					return
				}
				if !matchesOne(y, want[s]) {
					t.Errorf("spec %d: sketch matches no update generation", s)
					return
				}
			}
		}(g)
	}
	for u := 0; u < updates; u++ {
		if err := node.Update(delta); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	for s, spec := range specs {
		y, err := node.Sketch(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(y, want[s][updates]) {
			t.Fatalf("spec %d: final sketch differs from sensing.New(spec).Measure(x)", s)
		}
	}
}

func matchesOne(y linalg.Vector, gens []linalg.Vector) bool {
	for _, w := range gens {
		if bitsEqual(y, w) {
			return true
		}
	}
	return false
}

func bitsEqual(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
