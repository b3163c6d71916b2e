package simtest

import (
	"strings"
	"testing"
)

// TestRetiredKindRefused: a recorded replay line that names a retired
// ensemble fails to parse with sensing's retired-kind error, in every
// grammar that carries an ens= field — it is never replayed under
// another ensemble. The generators no longer produce such lines.
func TestRetiredKindRefused(t *testing.T) {
	grammars := map[string]struct {
		line  string
		parse func(string) error
	}{
		"v1":           {Generate(7, 0).String(), func(l string) error { _, err := ParseScenario(l); return err }},
		"stream1":      {GenerateStream(7, 0).String(), func(l string) error { _, err := ParseStreamScenario(l); return err }},
		"streamcrash1": {GenerateStreamCrash(7, 0).String(), func(l string) error { _, err := ParseStreamCrashScenario(l); return err }},
		"streamchurn1": {GenerateStreamChurn(7, 0).String(), func(l string) error { _, err := ParseStreamChurnScenario(l); return err }},
	}
	for name, g := range grammars {
		if !strings.HasPrefix(g.line, name+" ") || !strings.Contains(g.line, " ens=gaussian ") {
			t.Fatalf("%s generator produced %q", name, g.line)
		}
		if err := g.parse(g.line); err != nil {
			t.Fatalf("%s: generated line does not parse: %v", name, err)
		}
		for _, ens := range []string{"sparse", "srht"} {
			line := strings.Replace(g.line, " ens=gaussian ", " ens="+ens+" ", 1)
			want := `sensing: ensemble "` + ens + `" was retired (use gaussian or countsketch)`
			if err := g.parse(line); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s ens=%s: %v, want an error containing %q", name, ens, err, want)
			}
		}
	}
}
