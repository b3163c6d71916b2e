// Package experiments regenerates every figure of the paper's evaluation
// (§6, Figures 4–12) and the §4 conjecture checks. Each Fig* function
// returns printable tables whose rows are the figure's x-axis and whose
// columns are its plotted series; cmd/csbench and the root bench suite
// are thin wrappers around this package.
//
// Experiments accept a Config whose Scale shrinks the paper-size
// parameters proportionally (key-space, sparsity, measurement sweeps,
// trial counts) so the default run finishes on a laptop; Scale = 1
// reproduces the paper's dimensions.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is one plotted line: Y over the shared X axis of its Table.
type Series struct {
	Name string
	Y    []float64
}

// Table is one (sub)figure: a shared X axis and one or more series.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// AddSeries appends a series, validating its length against X.
func (t *Table) AddSeries(name string, y []float64) error {
	if len(y) != len(t.X) {
		return fmt.Errorf("experiments: series %q has %d points, X has %d", name, len(y), len(t.X))
	}
	t.Series = append(t.Series, Series{Name: name, Y: y})
	return nil
}

// Print renders the table as aligned text: a header row, then one row
// per X value — the "same rows/series the paper reports".
func (t *Table) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n== %s ==\n", t.Title); err != nil {
		return err
	}
	cols := make([]string, 0, len(t.Series)+1)
	cols = append(cols, t.XLabel)
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	widths := make([]int, len(cols))
	rows := make([][]string, len(t.X))
	for i, x := range t.X {
		row := make([]string, len(cols))
		row[0] = formatNum(x)
		for j, s := range t.Series {
			row[j+1] = formatNum(s.Y[i])
		}
		rows[i] = row
	}
	for j, c := range cols {
		widths[j] = len(c)
		for _, row := range rows {
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
	}
	if t.YLabel != "" {
		if _, err := fmt.Fprintf(w, "   (y: %s)\n", t.YLabel); err != nil {
			return err
		}
	}
	printRow := func(cells []string) error {
		var b strings.Builder
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[j]-len(c)))
			b.WriteString(c)
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := printRow(cols); err != nil {
		return err
	}
	for _, row := range rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180 CSV: a comment line with the
// title, a header row, then one row per X value — for piping into
// plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	header := append([]string{t.XLabel}, make([]string, 0, len(t.Series))...)
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, x := range t.X {
		row := make([]string, 0, len(t.Series)+1)
		row = append(row, strconv.FormatFloat(x, 'g', -1, 64))
		for _, s := range t.Series {
			row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatNum(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Config tunes an experiment run.
type Config struct {
	// Scale shrinks paper-size parameters; 1 = paper scale, 0 defaults
	// to 0.1 (fast local run).
	Scale float64
	// Trials overrides the per-point repetition count (0 = the
	// experiment's scaled default).
	Trials int
	// Seed offsets all randomness, so independent runs can be averaged.
	Seed uint64
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.1
	}
	if c.Scale > 1 {
		return 1
	}
	return c.Scale
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if def < 1 {
		def = 1
	}
	return def
}

// scaleInt shrinks a paper-scale integer parameter, with a floor.
func scaleInt(v int, s float64, min int) int {
	out := int(float64(v) * s)
	if out < min {
		out = min
	}
	return out
}
