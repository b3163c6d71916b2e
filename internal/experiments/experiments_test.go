package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// tiny is the configuration of the checked-in evaluation record
// (golden_test.go): `csbench -scale 0.02 -seed 42 all`.
func tiny() Config { return Config{Scale: 0.02, Seed: 42} }

// runs memoizes each experiment at tiny(), so the golden test and the
// shape tests read one run of each id per test binary.
var runs = map[string][]*Table{}

// sweep12 is Figure 12's sweep at tiny(): run lays the fig12 tables out
// from it, and TestFig12TraditionalDegradesWithN reads its shuffle bytes.
var sweep12 = sync.OnceValues(func() ([]float64, map[string][]mrPoint) {
	ns, series, err := fig12Sweep(tiny())
	if err != nil {
		panic(err)
	}
	return ns, series
})

func run(t *testing.T, id string) []*Table {
	t.Helper()
	if tables, ok := runs[id]; ok {
		return tables
	}
	var tables []*Table
	var err error
	if id == "fig12" {
		tables, err = fig12Tables(sweep12())
	} else {
		tables, err = Run(id, tiny())
	}
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tb := range tables {
		if len(tb.X) == 0 {
			t.Fatalf("%s: empty X in %q", id, tb.Title)
		}
		for _, s := range tb.Series {
			if len(s.Y) != len(tb.X) {
				t.Fatalf("%s: ragged series %q", id, s.Name)
			}
		}
	}
	runs[id] = tables
	return tables
}

func TestFig4aShape(t *testing.T) {
	tables := run(t, "fig4a")
	tb := tables[0]
	if len(tb.Series) != 6 {
		t.Fatalf("fig4a series = %d, want 6 (2 algorithms × 3 sparsities)", len(tb.Series))
	}
	// Probabilities in [0,1]; at the largest M, the easiest case (first
	// BOMP series, smallest s) should recover almost always.
	for _, s := range tb.Series {
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("probability out of range in %q: %v", s.Name, y)
			}
		}
	}
	first := tb.Series[0]
	if first.Y[len(first.Y)-1] < 0.9 {
		t.Fatalf("BOMP smallest-s at largest M recovered only %v", first.Y[len(first.Y)-1])
	}
	// Phase transition: recovery probability should (weakly) grow in M.
	if first.Y[0] > first.Y[len(first.Y)-1] {
		t.Fatalf("recovery probability decreasing in M: %v", first.Y)
	}
}

func TestFig4bStabilizes(t *testing.T) {
	tables := run(t, "fig4b")
	for _, s := range tables[0].Series {
		last := s.Y[len(s.Y)-1]
		if last < 4500 || last > 5500 {
			t.Fatalf("series %q final mode %v, want ≈5000", s.Name, last)
		}
	}
}

func TestFig5ErrorsDecreaseWithM(t *testing.T) {
	tables := run(t, "fig5")
	if len(tables) != 3 {
		t.Fatalf("fig5 tables = %d, want 3 (k=5,10,20)", len(tables))
	}
	for _, tb := range tables {
		for _, s := range tb.Series {
			if !strings.Contains(s.Name, "Avg") {
				continue
			}
			first, last := s.Y[0], s.Y[len(s.Y)-1]
			if last > first+0.15 {
				t.Fatalf("%s %q: error grew with M (%v -> %v)", tb.Title, s.Name, first, last)
			}
			for _, y := range s.Y {
				if y < 0 || y > 1 {
					t.Fatalf("EK out of range: %v", y)
				}
			}
		}
	}
}

func TestFig6Runs(t *testing.T) {
	tables := run(t, "fig6")
	if len(tables) != 3 {
		t.Fatalf("fig6 tables = %d", len(tables))
	}
	for _, tb := range tables {
		for _, s := range tb.Series {
			for _, y := range s.Y {
				if y < 0 {
					t.Fatalf("negative EV in %q", s.Name)
				}
			}
		}
	}
}

func TestFig7BOMPBeatsKDelta(t *testing.T) {
	tables := run(t, "fig7")
	if len(tables) != 3 {
		t.Fatalf("fig7 tables = %d", len(tables))
	}
	// Paper's headline: at the top of the sweep, BOMP's average EK is
	// far below K+δ's.
	tb := tables[0] // k=5
	kd, avg := series(t, tb, "K+delta"), series(t, tb, "BOMP Avg")
	last := len(avg) - 1
	if avg[last] >= kd[last] {
		t.Fatalf("BOMP avg EK %v not better than K+delta %v at max budget", avg[last], kd[last])
	}
}

func TestFig8Runs(t *testing.T) {
	run(t, "fig8")
}

func TestFig9TracesStabilize(t *testing.T) {
	tables := run(t, "fig9")
	if len(tables) != 3 {
		t.Fatalf("fig9 tables = %d, want 3 query types", len(tables))
	}
	for _, tb := range tables {
		tr := tb.Series[0].Y
		last := tr[len(tr)-1]
		// Production modes are in the hundreds-to-thousands range; the
		// trace must settle (last two values nearly equal).
		prev := tr[len(tr)-2]
		if last == 0 || abs(last-prev) > 0.02*abs(last) {
			t.Fatalf("%s: mode not settled (%v -> %v)", tb.Title, prev, last)
		}
	}
}

// series returns the named series of tb.
func series(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	for _, s := range tb.Series {
		if s.Name == name {
			return s.Y
		}
	}
	t.Fatalf("%s: no series %q", tb.Title, name)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestFig10CSWinsAtSmallM holds Figure 10 to its time tables and to the
// quantity the paper argues from, shuffle volume. At the smallest M a
// BOMP mapper ships one M-float sketch where a traditional one ships a
// tuple per key it saw, and BOMP's job is faster, on every input; on the
// 600 MB input recovery catches up inside the sweep, on the 600 GB input
// it never does. Every cell is an exact function of the input.
func TestFig10CSWinsAtSmallM(t *testing.T) {
	tables := run(t, "fig10")
	if len(tables) != 3 {
		t.Fatalf("fig10 tables = %d", len(tables))
	}
	for i, d := range fig10Datasets(tiny()) {
		tb := tables[i]
		cs, trad := series(t, tb, "BOMP"), series(t, tb, "Traditional Top-K")
		if cs[0] >= trad[0] {
			t.Errorf("%s: BOMP %vs not below traditional %vs at M=%v", tb.Title, cs[0], trad[0], tb.X[0])
		}
		m := int(tb.X[0])
		pt, err := runCS(d, m, 5, tiny().Seed+uint64(m))
		if err != nil {
			t.Fatal(err)
		}
		tp, err := runTraditional(d)
		if err != nil {
			t.Fatal(err)
		}
		if pt.shuffleBytes >= tp.shuffleBytes {
			t.Fatalf("%s: BOMP shuffle %d B not below traditional %d B at M=%d", d.name, pt.shuffleBytes, tp.shuffleBytes, m)
		}
		// One sketch per mapper: M·8 bytes and a few of key.
		if perMapper := pt.shuffleBytes / int64(pt.mapTasks); perMapper < int64(m)*8 || perMapper > int64(m)*8+16 {
			t.Fatalf("%s: BOMP M=%d ships %d B per mapper, want M·8 plus the key", d.name, m, perMapper)
		}
	}
	small, big := tables[0], tables[1]
	cs, trad := series(t, small, "BOMP"), series(t, small, "Traditional Top-K")
	if last := len(cs) - 1; cs[last] <= trad[last] {
		t.Errorf("%s: no crossover, BOMP %vs still below traditional %vs at M=%v", small.Title, cs[last], trad[last], small.X[last])
	}
	cs, trad = series(t, big, "BOMP"), series(t, big, "Traditional Top-K")
	for i := range cs {
		if cs[i] >= trad[i] {
			t.Errorf("%s: BOMP %vs not below traditional %vs at M=%v", big.Title, cs[i], trad[i], big.X[i])
		}
	}
}

func TestFig11Runs(t *testing.T) {
	tables := run(t, "fig11")
	if len(tables) != 6 {
		t.Fatalf("fig11 tables = %d, want 6 (map+reduce × 3 inputs)", len(tables))
	}
}

// TestFig12TraditionalDegradesWithN holds Figure 12 to its end-to-end
// table and to the quantity the paper argues from, shuffle volume.
// Traditional top-k ships a tuple per key per mapper, so its volume and
// its time grow with N; a BOMP mapper ships one M-float sketch whatever
// N is, and BOMP at M=50 wins at every N.
func TestFig12TraditionalDegradesWithN(t *testing.T) {
	ns, pts := sweep12()
	tables := run(t, "fig12")
	if len(tables) != 3 {
		t.Fatalf("fig12 tables = %d", len(tables))
	}
	trad, bomp50 := pts["Traditional topK"], pts["BOMP M=50"]
	if len(trad) != len(ns) || len(bomp50) != len(ns) {
		t.Fatal("missing series")
	}
	for i := range ns {
		if i > 0 && trad[i].shuffleBytes <= trad[i-1].shuffleBytes {
			t.Fatalf("N=%v: traditional shuffle %d B did not grow from %d B at N=%v",
				ns[i], trad[i].shuffleBytes, trad[i-1].shuffleBytes, ns[i-1])
		}
		if bomp50[i].shuffleBytes != bomp50[0].shuffleBytes {
			t.Fatalf("N=%v: BOMP M=50 shuffle %d B, want the constant %d B", ns[i], bomp50[i].shuffleBytes, bomp50[0].shuffleBytes)
		}
		if bomp50[i].shuffleBytes >= trad[i].shuffleBytes {
			t.Fatalf("N=%v: BOMP shuffle %d B not below traditional %d B", ns[i], bomp50[i].shuffleBytes, trad[i].shuffleBytes)
		}
	}
	// One sketch per mapper: M·8 bytes and a few of key.
	if perMapper := bomp50[0].shuffleBytes / int64(bomp50[0].mapTasks); perMapper < 50*8 || perMapper > 50*8+16 {
		t.Fatalf("BOMP M=50 ships %d B per mapper, want M·8 = %d plus the key", perMapper, 50*8)
	}
	e2e := tables[0]
	tt, bt := series(t, e2e, "Traditional topK"), series(t, e2e, "BOMP M=50")
	for i := range tt {
		if bt[i] >= tt[i] {
			t.Errorf("N=%v: BOMP M=50 %vs not below traditional %vs", e2e.X[i], bt[i], tt[i])
		}
	}
	if last := len(tt) - 1; tt[last]-tt[0] <= bt[last]-bt[0] {
		t.Errorf("traditional grew %vs across N, BOMP M=50 %vs: want traditional to degrade more", tt[last]-tt[0], bt[last]-bt[0])
	}
}

func TestConjectureExperiments(t *testing.T) {
	c1 := run(t, "conj1")
	for _, s := range c1[0].Series {
		if s.Name == "failure-rate" {
			for i, y := range s.Y {
				if y > 0.02 {
					t.Fatalf("conjecture-1 failure rate %v at point %d", y, i)
				}
			}
		}
	}
	c2 := run(t, "conj2")
	for _, s := range c2[0].Series {
		if s.Name == "holds" {
			for i, y := range s.Y {
				if y != 1 {
					t.Fatalf("conjecture-2 bound violated at point %d", i)
				}
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(ids))
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Fatalf("no description for %s", id)
		}
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunAndPrint(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAndPrint("conj2", tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Conjecture 2") || !strings.Contains(out, "epsilon") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestFormatNumFixedPrecision: a cell's text moves only when its value
// crosses a rounding boundary at the printed precision.
func TestFormatNumFixedPrecision(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want string
	}{
		{[]float64{5000, 5000 + 1e-9, 5000 - 1e-9, 4999.96}, "5000"},
		{[]float64{0, 1e-9, -1e-9, -0.00004}, "0"},
		{[]float64{1, 1 + 1e-9, 1 - 1e-9}, "1"},
		{[]float64{0.52, 0.52 + 1e-9, 0.52 - 1e-9}, "0.5200"},
		{[]float64{3.48251, 3.48249}, "3.4825"},
		{[]float64{583.6, 583.6 + 1e-9, 583.6 - 1e-9}, "583.6"},
		{[]float64{99.99996, 100, 100.04}, "100"},
		{[]float64{-17.5, -17.5 + 1e-12}, "-17.5000"},
	} {
		for _, v := range c.vs {
			if got := formatNum(v); got != c.want {
				t.Errorf("formatNum(%v) = %q, want %q", v, got, c.want)
			}
		}
	}
}

func TestTableAddSeriesValidates(t *testing.T) {
	tb := &Table{X: []float64{1, 2}}
	if err := tb.AddSeries("bad", []float64{1}); err == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != 0.1 {
		t.Fatalf("default scale = %v", c.scale())
	}
	if (Config{Scale: 5}).scale() != 1 {
		t.Fatal("scale not clamped to 1")
	}
	if c.trials(7) != 7 {
		t.Fatal("default trials ignored")
	}
	if (Config{Trials: 3}).trials(7) != 3 {
		t.Fatal("trial override ignored")
	}
	if scaleInt(100, 0.001, 5) != 5 {
		t.Fatal("scaleInt floor broken")
	}
}
