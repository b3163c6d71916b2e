package simtest

import (
	"fmt"
	"strconv"
	"strings"

	"csoutlier"
	"csoutlier/internal/sensing"
)

// fieldTable is a replay grammar: every key a scenario line may carry,
// with the setter that stores its value. The pull-path v1 line and the
// streaming lines (stream2 and the five legacy prefixes) are each one
// table read by parseReplayLine.
type fieldTable map[string]func(val string) error

// parseReplayLine is the harness's one replay-line reader: the first
// word picks the grammar, every other word is a key=value field applied
// through that grammar's table.
func parseReplayLine(line string, grammar func(prefix string) (fieldTable, error)) error {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return fmt.Errorf("simtest: empty scenario line")
	}
	table, err := grammar(fields[0])
	if err != nil {
		return err
	}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("simtest: malformed field %q", f)
		}
		set, ok := table[key]
		if !ok {
			return fmt.Errorf("simtest: field %q: unknown field %q", f, key)
		}
		if err := set(val); err != nil {
			return fmt.Errorf("simtest: field %q: %v", f, err)
		}
	}
	return nil
}

// baseFields declares the keys every scenario grammar shares, once.
func baseFields(seed *uint64, n, s, l, m, k *int, mode, noise *float64, ens *csoutlier.Ensemble) fieldTable {
	return fieldTable{
		"seed":  func(v string) (err error) { *seed, err = strconv.ParseUint(v, 10, 64); return },
		"n":     intField(n),
		"s":     intField(s),
		"l":     intField(l),
		"m":     intField(m),
		"k":     intField(k),
		"mode":  floatField(mode),
		"noise": floatField(noise),
		"ens":   func(v string) (err error) { *ens, err = sensing.ParseKind(v); return },
	}
}

func intField(p *int) func(string) error {
	return func(v string) (err error) { *p, err = strconv.Atoi(v); return }
}

func floatField(p *float64) func(string) error {
	return func(v string) (err error) { *p, err = strconv.ParseFloat(v, 64); return }
}
