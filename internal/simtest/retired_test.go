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
	lines := map[string]string{
		"v1":           Generate(7, 0).String(),
		"stream2":      GenerateStream("stream1", 7, 0).String(),
		"stream1":      "stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 noise=0 ens=gaussian crash=0@1 dup=1 proxy=4096:8192",
		"streamcrash1": "streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 noise=0 ens=gaussian cw=1 snap=0 crash=3 proxy=4096:8192",
		"streamchurn1": "streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 noise=0 ens=gaussian join=2 leave=0@1 evict=1@1 proxy=4096:8192",
	}
	parse := func(l string) error {
		if strings.HasPrefix(l, "v1 ") {
			_, err := ParseScenario(l)
			return err
		}
		_, err := ParseStreamScenario(l)
		return err
	}
	for name, line := range lines {
		if !strings.HasPrefix(line, name+" ") || !strings.Contains(line, " ens=gaussian ") {
			t.Fatalf("%s line is %q", name, line)
		}
		if err := parse(line); err != nil {
			t.Fatalf("%s: line does not parse: %v", name, err)
		}
		for _, ens := range []string{"sparse", "srht"} {
			retired := strings.Replace(line, " ens=gaussian ", " ens="+ens+" ", 1)
			want := `sensing: ensemble "` + ens + `" was retired (use gaussian or countsketch)`
			if err := parse(retired); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s ens=%s: %v, want an error containing %q", name, ens, err, want)
			}
		}
	}
}
