package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), sorted by family name so the
// output is deterministic for a quiescent registry. Scrape callbacks
// registered with OnScrape run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams, scrape := r.families()
	for _, fn := range scrape {
		fn()
	}
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value. Integral floats render without an
// exponent so counters read naturally.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {k="v",...} for the series, with extra appended
// (used for histogram le labels). Returns "" when there are no pairs.
func labelPairs(names []string, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// write renders one family: HELP, TYPE, then every series in a
// deterministic (sorted) order.
func (f *family) write(w *bufio.Writer) error {
	f.mu.RLock()
	keys := append([]string(nil), f.keys...)
	fn := f.fn
	f.mu.RUnlock()

	if f.kind == gaugeFuncKind && fn == nil {
		return nil // registered but never bound: render nothing
	}
	if len(keys) == 0 && f.kind != gaugeFuncKind {
		return nil // no series yet
	}
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.String())

	if f.kind == gaugeFuncKind {
		fmt.Fprintf(w, "%s %s\n", f.name, formatValue(fn()))
		return nil
	}
	sortedKeys := keys
	if len(sortedKeys) > 1 {
		sortedKeys = append([]string(nil), keys...)
		sortSeriesKeys(sortedKeys)
	}
	for _, k := range sortedKeys {
		f.mu.RLock()
		s := f.series[k]
		f.mu.RUnlock()
		if s == nil {
			continue
		}
		switch f.kind {
		case counterKind:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.labels, s.values, "", ""), s.counter.Value())
		case gaugeKind:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labels, s.values, "", ""), formatValue(s.gauge.Value()))
		case histogramKind:
			cum, count, sum := s.hist.snapshot()
			for i, bound := range s.hist.bounds {
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, s.values, "le", formatValue(bound)), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelPairs(f.labels, s.values, "le", "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelPairs(f.labels, s.values, "", ""), formatValue(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelPairs(f.labels, s.values, "", ""), count)
		}
	}
	return nil
}

// sortSeriesKeys sorts label-key strings; since the key is the joined
// label values, plain string order gives a stable, readable output.
func sortSeriesKeys(keys []string) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// Lint validates a Prometheus text exposition stream: metric and label
// name grammar, sample value syntax, TYPE line placement and known
// types, and no duplicate TYPE/HELP declarations. It is the checker
// behind the CI metrics smoke (scripts/verify.sh) and cmd/obscheck; it
// accepts anything a Prometheus scraper would, including untyped
// families and histogram suffix samples.
func Lint(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	typed := map[string]string{}
	helped := map[string]bool{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := lintComment(text, typed, helped); err != nil {
				return fmt.Errorf("obs: line %d: %w", line, err)
			}
			continue
		}
		if err := lintSample(text); err != nil {
			return fmt.Errorf("obs: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: lint: %w", err)
	}
	if line == 0 {
		return fmt.Errorf("obs: empty exposition")
	}
	return nil
}

// LintString is Lint over an in-memory exposition.
func LintString(s string) error { return Lint(strings.NewReader(s)) }

func lintComment(text string, typed map[string]string, helped map[string]bool) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment: allowed
	}
	if len(fields) < 3 || !validName(fields[2]) {
		return fmt.Errorf("malformed %s line %q", fields[1], text)
	}
	name := fields[2]
	switch fields[1] {
	case "HELP":
		if helped[name] {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		helped[name] = true
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("TYPE line %q has no type", text)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown type %q for %s", fields[3], name)
		}
		if _, dup := typed[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		typed[name] = fields[3]
	}
	return nil
}

func lintSample(text string) error {
	rest := text
	// Metric name.
	i := 0
	for i < len(rest) && rest[i] != '{' && rest[i] != ' ' {
		i++
	}
	name := rest[:i]
	if !validName(name) {
		return fmt.Errorf("invalid metric name in %q", text)
	}
	rest = rest[i:]
	// Optional label block.
	if strings.HasPrefix(rest, "{") {
		end, err := lintLabels(rest)
		if err != nil {
			return fmt.Errorf("%w in %q", err, text)
		}
		rest = rest[end:]
	}
	if !strings.HasPrefix(rest, " ") {
		return fmt.Errorf("missing value separator in %q", text)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("want 'value [timestamp]' after name in %q", text)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("bad sample value %q in %q", fields[0], text)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q in %q", fields[1], text)
		}
	}
	return nil
}

// lintLabels validates a {name="value",...} block starting at s[0]=='{'
// and returns the index just past the closing brace.
func lintLabels(s string) (int, error) {
	i := 1
	for {
		// Label name.
		start := i
		for i < len(s) && s[i] != '=' && s[i] != '}' && s[i] != ',' {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' && i == start {
			return i + 1, nil // empty block or trailing comma
		}
		lname := s[start:i]
		if !validName(lname) || strings.Contains(lname, ":") {
			return 0, fmt.Errorf("invalid label name %q", lname)
		}
		if s[i] != '=' || i+1 >= len(s) || s[i+1] != '"' {
			return 0, fmt.Errorf("label %q not followed by =\"", lname)
		}
		i += 2
		// Quoted value with escapes.
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value for %q", lname)
		}
		i++ // closing quote
		switch {
		case i < len(s) && s[i] == ',':
			i++
		case i < len(s) && s[i] == '}':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("expected ',' or '}' after label %q", lname)
		}
	}
}
