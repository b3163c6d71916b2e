package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one figure (or conjecture check) as tables.
type Runner func(Config) ([]*Table, error)

// registry maps experiment ids to runners and descriptions.
var registry = map[string]struct {
	run  Runner
	desc string
}{
	"fig4a":     {Fig4a, "P(exact recovery) vs M, BOMP vs OMP+known-mode (majority-dominated)"},
	"fig4b":     {Fig4b, "mode estimate per BOMP iteration, stabilizes at s+1"},
	"fig5":      {Fig5, "error on key vs M, power-law data, k in {5,10,20}"},
	"fig6":      {Fig6, "error on value vs M, power-law data, k in {5,10,20}"},
	"fig7":      {Fig7, "error on key vs normalized comm cost, production data, BOMP vs K+delta"},
	"fig8":      {Fig8, "error on value vs normalized comm cost, production data, BOMP vs K+delta"},
	"fig9":      {Fig9, "mode per recovery iteration on three production score data sets"},
	"fig10":     {Fig10, "end-to-end Hadoop-model time vs M, BOMP vs traditional top-k"},
	"fig11":     {Fig11, "map/reduce breakdown time vs M"},
	"fig12":     {Fig12, "efficiency vs key-space size N (to 5M keys)"},
	"conj1":     {Conj1, "numerical check of the near-isometric transformation conjecture"},
	"conj2":     {Conj2, "numerical check of the near-independent inner product conjecture"},
	"algos":     {Algos, "extension: BOMP vs bias-blind OMP on biased data (why BOMP exists)"},
	"fig1":      {Fig1, "motivating example: local views vs global truth; outlier-k vs top-k"},
	"jitter":    {Jitter, "extension: BOMP robustness to concentration jitter (near-sparse data)"},
	"ensembles": {Ensembles, "extension: Gaussian vs count-sketch measurement quality"},
	"pointq":    {PointQ, "extension: recovery-free count-sketch point queries — accuracy, bytes, latency vs M"},
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description for an id ("" if unknown).
func Describe(id string) string { return registry[id].desc }

// Run executes the experiment with the given id.
func Run(id string, cfg Config) ([]*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return e.run(cfg)
}

// RunAndPrint executes an experiment and renders its tables to w.
func RunAndPrint(id string, cfg Config, w io.Writer) error {
	tables, err := Run(id, cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Print(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAndWriteCSV executes an experiment and renders its tables as CSV.
func RunAndWriteCSV(id string, cfg Config, w io.Writer) error {
	tables, err := Run(id, cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
