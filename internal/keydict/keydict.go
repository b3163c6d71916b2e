// Package keydict implements the global key dictionary from the paper's
// §3.1 "Vectorization" step: a fixed, consensus ordering of the key space
// so that every node lays its local key-value pairs out at the same
// vector positions, and the aggregator can translate recovered positions
// back into keys.
//
// A Dictionary is immutable once built (the protocol requires all nodes
// to agree on it for the lifetime of a measurement matrix); Builder
// accumulates keys — possibly merged from several nodes' key lists — and
// Freeze produces the canonical dictionary, sorted lexicographically so
// that construction order does not matter.
package keydict

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"csoutlier/internal/linalg"
)

// Dictionary is an immutable bijection between string keys and dense
// vector positions [0, N).
type Dictionary struct {
	keys  []string
	index map[string]int
}

// Builder accumulates a key set.
type Builder struct {
	seen map[string]bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{seen: make(map[string]bool)} }

// Add registers a key (idempotent).
func (b *Builder) Add(key string) { b.seen[key] = true }

// AddAll registers every key in keys.
func (b *Builder) AddAll(keys []string) {
	for _, k := range keys {
		b.Add(k)
	}
}

// Len returns the number of distinct keys so far.
func (b *Builder) Len() int { return len(b.seen) }

// Freeze produces the canonical dictionary: keys sorted lexicographically.
// Two builders with equal key sets freeze to identical dictionaries
// regardless of insertion order — the consensus property nodes rely on.
func (b *Builder) Freeze() *Dictionary {
	keys := make([]string, 0, len(b.seen))
	for k := range b.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return FromSorted(keys)
}

// FromSorted builds a dictionary directly from a sorted, duplicate-free
// key list. It panics if the input is not strictly sorted, since silent
// disagreement between nodes would corrupt every downstream result.
func FromSorted(keys []string) *Dictionary {
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic(fmt.Sprintf("keydict: keys not strictly sorted at %d (%q >= %q)", i, keys[i-1], k))
		}
		idx[k] = i
	}
	return &Dictionary{keys: keys, index: idx}
}

// N returns the key-space size.
func (d *Dictionary) N() int { return len(d.keys) }

// Index returns the vector position of key, or (-1, false) when the key
// is not in the dictionary.
func (d *Dictionary) Index(key string) (int, bool) {
	i, ok := d.index[key]
	if !ok {
		return -1, false
	}
	return i, true
}

// Key returns the key at position i. It panics when out of range.
func (d *Dictionary) Key(i int) string { return d.keys[i] }

// Keys returns the full ordered key list (a copy).
func (d *Dictionary) Keys() []string {
	return append([]string(nil), d.keys...)
}

// Vectorize lays out key-value pairs as a dense N-vector (paper §3.1):
// values accumulate per key, keys absent from pairs contribute 0. Unknown
// keys are reported as an error — the global dictionary must be rebuilt
// when the key space changes.
func (d *Dictionary) Vectorize(pairs map[string]float64) (linalg.Vector, error) {
	x := make(linalg.Vector, len(d.keys))
	for k, v := range pairs {
		i, ok := d.index[k]
		if !ok {
			return nil, fmt.Errorf("keydict: key %q not in global dictionary", k)
		}
		x[i] += v
	}
	return x, nil
}

// SparseVectorize returns parallel (indices, values) slices for the
// non-zero entries of pairs — the input shape sensing.MeasureSparse
// wants, avoiding the dense N-vector on huge key spaces. The result is
// sorted by index for determinism.
func (d *Dictionary) SparseVectorize(pairs map[string]float64) (idx []int, vals []float64, err error) {
	type iv struct {
		i int
		v float64
	}
	tmp := make([]iv, 0, len(pairs))
	for k, v := range pairs {
		i, ok := d.index[k]
		if !ok {
			return nil, nil, fmt.Errorf("keydict: key %q not in global dictionary", k)
		}
		if v == 0 {
			continue
		}
		tmp = append(tmp, iv{i, v})
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a].i < tmp[b].i })
	idx = make([]int, len(tmp))
	vals = make([]float64, len(tmp))
	for j, e := range tmp {
		idx[j] = e.i
		vals[j] = e.v
	}
	return idx, vals, nil
}

// Write serializes the dictionary as one key per line. Keys containing
// line-control characters ('\n', '\r') cannot survive the line-based
// format and are rejected rather than silently mangled.
func (d *Dictionary) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, k := range d.keys {
		if strings.ContainsAny(k, "\n\r") {
			return fmt.Errorf("keydict: key %d contains line-control characters and cannot be serialized", i)
		}
		if _, err := fmt.Fprintln(bw, k); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a dictionary written by Write.
func Read(r io.Reader) (*Dictionary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var keys []string
	for sc.Scan() {
		line := sc.Text()
		if strings.ContainsRune(line, '\r') {
			// A carriage return inside a key would not round-trip
			// through the line format (trailing \r is CRLF-stripped).
			return nil, fmt.Errorf("keydict: key on line %d contains a carriage return", len(keys)+1)
		}
		keys = append(keys, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("keydict: read: %w", err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return nil, fmt.Errorf("keydict: serialized keys not strictly sorted at line %d", i+1)
		}
	}
	return FromSorted(keys), nil
}
