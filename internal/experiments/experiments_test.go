package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests; every
// experiment must complete in a few seconds at this scale.
func tiny() Config { return Config{Scale: 0.02, Trials: 3, Seed: 42} }

func run(t *testing.T, id string) []*Table {
	t.Helper()
	tables, err := Run(id, tiny())
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
	// fig7 needs a slightly larger key space than the other smoke tests:
	// BOMP's budgeted M is a fraction of N, and at N ≈ 200 the top of
	// the sweep leaves too few measurements to beat sampling.
	tables, err := Run("fig7", Config{Scale: 0.06, Trials: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("fig7 tables = %d", len(tables))
	}
	// Paper's headline: at the top of the sweep, BOMP's average EK is
	// far below K+δ's.
	tb := tables[0] // k=5
	var kd, avg []float64
	for _, s := range tb.Series {
		switch s.Name {
		case "K+delta":
			kd = s.Y
		case "BOMP Avg":
			avg = s.Y
		}
	}
	if kd == nil || avg == nil {
		t.Fatal("missing series")
	}
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

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestFig10CSWinsAtSmallM holds Figure 10's argument to the quantity the
// paper makes it from, as TestFig12TraditionalDegradesWithN does:
// shuffle volume. At the smallest M a BOMP mapper ships one M-float
// sketch where a traditional one ships a tuple per key it saw, on every
// input. Both are exact functions of the input; no clock is compared.
func TestFig10CSWinsAtSmallM(t *testing.T) {
	tables := run(t, "fig10")
	if len(tables) != 3 {
		t.Fatalf("fig10 tables = %d", len(tables))
	}
	datasets, err := fig10Datasets(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range datasets {
		for _, s := range tables[i].Series {
			for _, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s: non-positive simulated time %v in %q", tables[i].Title, y, s.Name)
				}
			}
		}
		m := int(tables[i].X[0])
		cs, err := runCS(d, m, 5, tiny().Seed+uint64(m))
		if err != nil {
			t.Fatal(err)
		}
		trad, err := runTraditional(d)
		if err != nil {
			t.Fatal(err)
		}
		if cs.shuffleBytes >= trad.shuffleBytes {
			t.Fatalf("%s: BOMP shuffle %d B not below traditional %d B at M=%d", d.name, cs.shuffleBytes, trad.shuffleBytes, m)
		}
		// One sketch per mapper: M·8 bytes and a few of key.
		if perMapper := cs.shuffleBytes / int64(cs.mapTasks); perMapper < int64(m)*8 || perMapper > int64(m)*8+16 {
			t.Fatalf("%s: BOMP M=%d ships %d B per mapper, want M·8 plus the key", d.name, m, perMapper)
		}
	}
}

func TestFig11Runs(t *testing.T) {
	tables := run(t, "fig11")
	if len(tables) != 6 {
		t.Fatalf("fig11 tables = %d, want 6 (map+reduce × 3 inputs)", len(tables))
	}
}

// TestFig12TraditionalDegradesWithN holds Figure 12's argument to the
// quantity the paper makes it from (and the simulated clock is derived
// from): shuffle volume. Traditional top-k ships a tuple per key per
// mapper, so its volume grows with N; a BOMP mapper ships one M-float
// sketch whatever N is. Both are exact functions of the input, so this
// neither flakes under load nor skews under the race detector.
func TestFig12TraditionalDegradesWithN(t *testing.T) {
	ns, series, err := fig12Sweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tables, err := fig12Tables(ns, series); err != nil || len(tables) != 3 {
		t.Fatalf("fig12 tables = %d, %v", len(tables), err)
	}
	trad, bomp50 := series["Traditional topK"], series["BOMP M=50"]
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
