package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The span recorder is owned by the benchmark: spans wrap the calls the
// driver makes into a layer's exported functions, never code inside the
// program under test. Each driver goroutine records into its own lane
// (no locks on the hot path); lanes are merged when the run ends.

// span is one timed call (or a batch of n identical calls) into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Lane   int    `json:"lane"`
	Parent int    `json:"parent"` // index into the merged span list, -1 for a root
	Op     int64  `json:"op"`     // spans of one operation share it
	N      int    `json:"n"`      // calls the span covers
}

type laneSpan struct {
	name        string
	start, end  int64
	parentLane  int
	parentIndex int
	op          int64
	n           int
}

type spanRef struct{ lane, index int }

// lane is one goroutine's span buffer. A nil lane records nothing, so
// the untraced pass pays one nil check per call site.
type lane struct {
	id    int
	epoch time.Time
	spans []laneSpan
	stack []int
	// root is the parent of spans begun with an empty stack: the
	// operation span another lane opened (a cycle fanning out to leaf
	// goroutines), or {-1,-1}.
	root spanRef
	op   int64
}

type recorder struct {
	epoch time.Time
	lanes []*lane
}

func newRecorder(lanes int) *recorder {
	r := &recorder{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, &lane{id: i, epoch: r.epoch, root: spanRef{-1, -1}, spans: make([]laneSpan, 0, 1<<14)})
	}
	return r
}

// lane returns lane i, or nil when the recorder is nil (tracing off).
func (r *recorder) lane(i int) *lane {
	if r == nil {
		return nil
	}
	return r.lanes[i]
}

// adopt makes spans this lane opens at stack depth 0 children of the
// given span and tags them with its operation.
func (l *lane) adopt(parent spanRef, op int64) {
	if l == nil {
		return
	}
	l.root, l.op = parent, op
}

// setOp tags the spans this lane opens next with an operation id.
func (l *lane) setOp(op int64) {
	if l != nil {
		l.op = op
	}
}

// begin opens a span and returns its index in the lane (-1 when off).
func (l *lane) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := l.root
	if n := len(l.stack); n > 0 {
		parent = spanRef{l.id, l.stack[n-1]}
	}
	l.spans = append(l.spans, laneSpan{
		name: name, parentLane: parent.lane, parentIndex: parent.index, op: l.op, n: 1,
		start: int64(time.Since(l.epoch)),
	})
	i := len(l.spans) - 1
	l.stack = append(l.stack, i)
	return i
}

// end closes the innermost open span, which must be i; n is how many
// calls it covered.
func (l *lane) end(i, n int) {
	if l == nil {
		return
	}
	l.spans[i].end = int64(time.Since(l.epoch))
	l.spans[i].n = n
	l.stack = l.stack[:len(l.stack)-1]
}

// rename gives span i the name its outcome decided (a cache hit or a
// miss is only known once the call returns).
func (l *lane) rename(i int, name string) {
	if l != nil {
		l.spans[i].name = name
	}
}

// ref names span i of this lane for another lane's adopt.
func (l *lane) ref(i int) spanRef {
	if l == nil {
		return spanRef{-1, -1}
	}
	return spanRef{l.id, i}
}

// merged flattens the lanes into one list with global parent indices.
func (r *recorder) merged() []span {
	base := make([]int, len(r.lanes))
	total := 0
	for i, l := range r.lanes {
		base[i] = total
		total += len(l.spans)
	}
	out := make([]span, 0, total)
	for _, l := range r.lanes {
		for _, s := range l.spans {
			parent := -1
			if s.parentLane >= 0 {
				parent = base[s.parentLane] + s.parentIndex
			}
			out = append(out, span{Name: s.name, Start: s.start, End: s.end, Lane: l.id, Parent: parent, Op: s.op, N: s.n})
		}
	}
	return out
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name   string
	Calls  int64
	Self   int64 // ns, duration minus the part child spans cover
	Shared bool  // derived from a counter inside a parent span, not a span of its own
}

// selfTimes computes, per span name, the total and self time: a span's
// self time is its duration minus the union of the intervals its child
// spans cover (children of parallel lanes may overlap; the union counts
// the covered time once).
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Calls += int64(s.N)
		lt.Self += dur - covered(children[i], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curLo, curHi := int64(0), int64(-1)
	open := false
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			if b > curHi {
				curHi = b
			}
		default:
			sum += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// carve moves ns of self time out of layer `from` into a derived layer
// `to`: the time a counter inside the program (a histogram the layer
// already keeps) says was spent one level further down than the
// benchmark's own spans can see.
func carve(layers map[string]*layerTime, from, to string, ns, calls int64) {
	src := layers[from]
	if src == nil || ns <= 0 {
		return
	}
	if ns > src.Self {
		ns = src.Self
	}
	src.Self -= ns
	dst := layers[to]
	if dst == nil {
		dst = &layerTime{Name: to, Shared: true}
		layers[to] = dst
	}
	dst.Calls += calls
	dst.Self += ns
}

// writeSelfTable prints the stacked self-time table of one workload —
// the analogue of the paper's Figure 11 (time by stage).
func writeSelfTable(w io.Writer, workload string, layers map[string]*layerTime) {
	rows := make([]*layerTime, 0, len(layers))
	var total int64
	for _, lt := range layers {
		rows = append(rows, lt)
		total += lt.Self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	fmt.Fprintf(w, "self time by layer, %s (traced pass)\n", workload)
	fmt.Fprintf(w, "  %-28s %12s %12s %8s\n", "layer", "calls", "self_ms", "share")
	for _, lt := range rows {
		mark := ""
		if lt.Shared {
			mark = " *"
		}
		fmt.Fprintf(w, "  %-28s %12d %12.3f %7.2f%%%s\n", lt.Name, lt.Calls, float64(lt.Self)/1e6, share(lt.Self, total), mark)
	}
	fmt.Fprintf(w, "  (* carved out of its parent span with the layer's own counters)\n")
}

func share(part, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// flushSpans writes the merged spans to dir/trace-<workload>.json.
func flushSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
