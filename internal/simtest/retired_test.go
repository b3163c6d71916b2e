package simtest

import (
	"fmt"
	"strings"
	"testing"
)

// TestRetiredKindRefused: a recorded replay line that names the
// ensembles "sparse" or "srht" fails to parse with sensing's
// unknown-ensemble error, in every grammar that carries an ens= field —
// it is never replayed under another ensemble. A line
// under a retired streaming prefix, or a pull-path line, is refused by
// its prefix: stream2 is the one streaming grammar.
func TestRetiredKindRefused(t *testing.T) {
	lines := map[string]string{
		"v1":                 Generate(7, 0).String(),
		"stream2":            GenerateStream("stream1", 7, 0).String(),
		"stream2 crash, dup": "stream2 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 noise=0 ens=gaussian nodecrash=0@1 dup=1 proxy=4096:8192",
		"stream2 restore":    "stream2 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 noise=0 ens=gaussian snap=1:0 aggcrash=1:3 proxy=4096:8192",
		"stream2 churn":      "stream2 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 noise=0 ens=gaussian join=2 leave=0@1 evict=1@1 proxy=4096:8192",
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
		prefix, _, _ := strings.Cut(name, " ")
		if !strings.HasPrefix(line, prefix+" ") || !strings.Contains(line, " ens=gaussian ") {
			t.Fatalf("%s line is %q", name, line)
		}
		if err := parse(line); err != nil {
			t.Fatalf("%s: line does not parse: %v", name, err)
		}
		for _, ens := range []string{"sparse", "srht"} {
			retired := strings.Replace(line, " ens=gaussian ", " ens="+ens+" ", 1)
			want := `sensing: unknown ensemble "` + ens + `"`
			if err := parse(retired); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s ens=%s: %v, want an error containing %q", name, ens, err, want)
			}
		}
	}
	body := strings.TrimPrefix(lines["stream2"], "stream2")
	for _, prefix := range []string{"stream1", "streamcrash1", "streamchurn1", "streampointq1", "streamtier1", "v1"} {
		want := fmt.Sprintf("unknown streaming scenario prefix %q", prefix)
		if _, err := ParseStreamScenario(prefix + body); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s%s: %v, want an error containing %q", prefix, body, err, want)
		}
	}
}
