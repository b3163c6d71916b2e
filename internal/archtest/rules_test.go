package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// rule is one architecture rule: a short id, what it forbids, the
// EXPERIMENTS.md section that earned it, the check, and fixtures — sources that, added
// to the module (a .go file joins its directory's package, a doc
// replaces the doc), each make the rule fire. A rule may also report
// what it measured, into the test log.
type rule struct {
	id       string
	name     string
	section  string
	check    func(*program) []string
	fixtures []map[string]string
	report   func(*program) string
}

var rules = []rule{
	{
		id:      "gob",
		name:    "no encoding/gob outside tests: both wire protocols are internal/frame's binary frames",
		section: "pr16",
		check: func(p *program) []string {
			return imports(p, func(f *file, path string) bool { return path == "encoding/gob" })
		},
		fixtures: []map[string]string{{"internal/stream/gob.go": `package stream; import _ "encoding/gob"`}},
	},
	{
		id:      "tier-dial",
		name:    "internal/tier never talks to its parent itself: upward frames go through stream.Sender",
		section: "pr31",
		check: func(p *program) []string {
			return uses(p, func(f *file, obj types.Object) bool {
				return dirOf(f) == "internal/tier" && obj.Pkg() != nil && obj.Pkg().Path() == modulePath+"/internal/stream" &&
					(obj.Name() == "PushDelta" || obj.Name() == "Hello" || obj.Name() == "DialClient")
			})
		},
		fixtures: []map[string]string{{"internal/tier/dial.go": `package tier
import ("context"; "time"; "csoutlier/internal/stream")
func dialUp(ctx context.Context) { c, _ := stream.DialClient(ctx, "x", time.Second); c.Hello("r", 1) }`}},
	},
	{
		id:      "one-backoff",
		name:    "one ctx-sleep and one backoff-delay helper, both in internal/xrand/backoff.go",
		section: "pr31",
		check: func(p *program) []string {
			var out []string
			for _, want := range [][]string{{"sleepctx", "sleepup"}, {"backoffdelay", "backoffup"}} {
				var defs []string
				funcs(p, func(f *file, fd *ast.FuncDecl) {
					name := strings.ToLower(fd.Name.Name)
					if dirOf(f) != "benchmark" && (name == want[0] || name == want[1]) {
						defs = append(defs, at(p, fd.Pos())+": "+fd.Name.Name)
					}
				})
				if len(defs) != 1 || !strings.HasPrefix(defs[0], "internal/xrand/backoff.go:") {
					out = append(out, fmt.Sprintf("want one %s definition in internal/xrand/backoff.go, have %v", want[0], defs))
				}
			}
			return out
		},
		fixtures: []map[string]string{{"internal/tier/backoff.go": `package tier; func sleepUp() {}; func backoffUp() {}`}},
	},
	{
		id:      "handler-folds",
		name:    "internal/stream folds on the handler: no ingest queue, and no nil-check of the always-set aggregator metrics",
		section: "pr24",
		check: func(p *program) []string {
			var out []string
			inspect(p, false, func(pk *pkg, f *file, n ast.Node) {
				if dirOf(f) != "internal/stream" {
					return
				}
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == "QueueDepth" || n.Name == "ingestItem" {
						out = append(out, at(p, n.Pos())+": "+n.Name)
					}
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return
					}
					for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if isNil(pair[1]) && isAggMetrics(pk, pair[0]) {
							out = append(out, at(p, n.Pos())+": nil-check of the aggregator's metrics")
						}
					}
				}
			})
			return out
		},
		fixtures: []map[string]string{
			{"internal/stream/queue.go": `package stream; type ingestItem struct{}; var queue chan ingestItem`},
			{"internal/stream/bare.go": `package stream; func (a *Aggregator) bare() bool { m := a.metrics; return m != nil }`},
		},
	},
	{
		id:      "measure-before-lock",
		name:    "no fold from encoded bytes under a lock, chunked multi-column add or row-major parallel GEMM",
		section: "pr25",
		check: func(p *program) []string {
			return idents(p, false, func(name string) bool {
				return name == "AddEncoded" || name == "AddCols" || name == "pairChunk" || name == "ParallelMulMatT"
			})
		},
		fixtures: []map[string]string{{"windows_encoded.go": `package csoutlier; func (w *WindowStore) AddEncoded(age int, b []byte) error { return nil }`}},
	},
	{
		id:      "one-matrix-interface",
		name:    "callers hold a sensing.Matrix: no concrete sensing matrix type outside internal/sensing (pointquery.go's CountSketch excepted)",
		section: "pr21",
		check: func(p *program) []string {
			return uses(p, func(f *file, obj types.Object) bool {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.Pkg() == nil || tn.Pkg().Path() != modulePath+"/internal/sensing" || dirOf(f) == "internal/sensing" {
					return false
				}
				switch tn.Name() {
				case "CountSketch":
					return f.name != "pointquery.go"
				case "Dense", "Seeded":
					return true
				}
				return false
			})
		},
		fixtures: []map[string]string{{"internal/recovery/dense.go": `package recovery
import "csoutlier/internal/sensing"
func isDense(m sensing.Matrix) bool { _, ok := m.(*sensing.Dense); return ok }`}},
	},
	{
		id:      "retired-names",
		name:    "no retired ensemble, column cache, optional batch interface, format-compatibility shim, tombstone cap, hand-set sender backoff or retention, or relay snapshot file half, test files included",
		section: "pr21",
		check: func(p *program) []string {
			return idents(p, true, func(name string) bool {
				for _, retired := range []string{"NewSRHT", "NewSparseRademacher", "NewColumnCache", "BatchCorrelator",
					"idPad", "snapVersionExtra", "kindRetiredSparse", "kindRetiredSRHT", "relayExtraVersion",
					"maxTombstones", "tombsForgotten", "BaseBackoff", "MaxBackoff", "pushRetain",
					"RestoreRelay", "SnapshotExtra", "CommitStaged", "relayExtraMagic"} {
					if strings.Contains(name, retired) {
						return true
					}
				}
				return false
			})
		},
		fixtures: []map[string]string{
			{"internal/sensing/srht_test.go": `package sensing; var _ = NewSRHT`},
			{"internal/cluster/pad.go": `package cluster; const idPad = 5`},
			{"internal/stream/cap.go": `package stream; const maxTombstones = 1024`},
			{"internal/stream/opts.go": `package stream; type o struct{ MaxBackoff int }`},
			{"internal/tier/restore.go": `package tier; func RestoreRelay() {}`},
		},
	},
	{
		id:      "one-harness",
		name:    "one streaming scenario harness: one replay-line field loop and at most two chaos-proxy call sites in internal/simtest",
		section: "pr22",
		check: func(p *program) []string {
			var loops, proxies []string
			calls(p, func(pk *pkg, f *file, call *ast.CallExpr, fn types.Object) {
				if dirOf(f) != "internal/simtest" {
					return
				}
				switch {
				case isFunc(fn, "strings", "Fields") && len(call.Args) == 1 && isFunc(callee(pk, call.Args[0]), "strings", "TrimSpace"):
					loops = append(loops, at(p, call.Pos()))
				case isFunc(fn, modulePath+"/internal/simtest", "startChaosProxy"):
					proxies = append(proxies, at(p, call.Pos()))
				}
			})
			var out []string
			if len(loops) > 1 {
				out = append(out, fmt.Sprintf("%d replay-line field loops %v; add a field table to parseReplayLine instead", len(loops), loops))
			}
			if len(proxies) > 2 {
				out = append(out, fmt.Sprintf("%d startChaosProxy call sites %v; the flat and the tier rig are the only two", len(proxies), proxies))
			}
			return out
		},
		fixtures: []map[string]string{
			{"internal/simtest/replay2.go": `package simtest
import "strings"
func parseOther(line string) []string { return strings.Fields(strings.TrimSpace(line)) }`},
			{"internal/simtest/proxy2.go": `package simtest
func moreProxies() { startChaosProxy("a", 1, 0, 0); startChaosProxy("b", 2, 0, 0) }`},
		},
	},
	{
		id:      "one-engine",
		name:    "one recovery engine: internal/recovery correlates in solve's c₀/prefetch block and in GramCache.fill, nowhere else",
		section: "pr23",
		check: func(p *program) []string {
			var sites []string
			calls(p, func(_ *pkg, f *file, _ *ast.CallExpr, fn types.Object) {
				if dirOf(f) == "internal/recovery" && fn != nil && strings.HasPrefix(strings.ToLower(fn.Name()), "correlate") {
					sites = append(sites, f.name+": "+fn.Name())
				}
			})
			sort.Strings(sites)
			want := []string{"internal/recovery/gram.go: Correlate", "internal/recovery/workspace.go: CorrelateBlock"}
			if strings.Join(sites, "; ") != strings.Join(want, "; ") {
				return []string{fmt.Sprintf("correlate call sites %v, want %v", sites, want)}
			}
			return nil
		},
		fixtures: []map[string]string{{"internal/recovery/again.go": `package recovery
import ("csoutlier/internal/linalg"; "csoutlier/internal/sensing")
func recorrelate(m sensing.Matrix, r linalg.Vector) linalg.Vector { return m.Correlate(r, nil) }`}},
	},
	{
		id:      "one-recovery-path",
		name:    "every solve runs on a Workspace: no non-test code outside internal/recovery calls a package-level solver (benchmark/ excepted until it is gated)",
		section: "pr37",
		check: func(p *program) []string {
			return uses(p, func(f *file, obj types.Object) bool {
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/internal/recovery" {
					return false
				}
				if dir := dirOf(f); dir == "internal/recovery" || dir == "benchmark" {
					return false
				}
				sig := fn.Type().(*types.Signature)
				if sig.Recv() != nil || sig.Results().Len() == 0 {
					return false
				}
				ptr, ok := sig.Results().At(0).Type().(*types.Pointer)
				if !ok {
					return false
				}
				named, ok := ptr.Elem().(*types.Named)
				return ok && named.Obj().Name() == "Result"
			})
		},
		fixtures: []map[string]string{{"internal/cluster/cold.go": `package cluster
import ("csoutlier/internal/linalg"; "csoutlier/internal/recovery"; "csoutlier/internal/sensing")
func cold(m sensing.Matrix, y linalg.Vector) (*recovery.Result, error) { return recovery.BOMP(m, y, recovery.Options{}) }`}},
	},
	{
		id:      "clock-free-evaluation",
		name:    "no clock in the evaluation: internal/experiments and internal/mapreduce read no time and start no timer outside tests, so every table is a function of its seed",
		section: "pr39",
		check: func(p *program) []string {
			return uses(p, func(f *file, obj types.Object) bool {
				if dir := dirOf(f); dir != "internal/experiments" && dir != "internal/mapreduce" {
					return false
				}
				if _, ok := obj.(*types.Func); !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return false
				}
				switch obj.Name() {
				case "Now", "Since", "Until", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick":
					return true
				}
				return false
			})
		},
		fixtures: []map[string]string{
			{"internal/mapreduce/clock.go": `package mapreduce
import "time"
func measured(f func()) time.Duration { start := time.Now(); f(); return time.Since(start) }`},
			{"internal/experiments/timer.go": `package experiments
import "time"
func deadline() <-chan time.Time { return time.NewTimer(time.Second).C }`},
		},
	},
	{
		id:      "one-pull-round",
		name:    "one pull round: internal/baseline is imported by the experiments and examples only, csagg imports none of the round's parts, the evaluation computes on slices (no internal/cluster in internal/baseline, internal/experiments or examples/topk), and internal/cluster only collects (no internal/recovery or internal/outlier)",
		section: "pr40",
		check: func(p *program) []string {
			return imports(p, func(f *file, path string) bool {
				dir := dirOf(f)
				switch path {
				case modulePath + "/internal/baseline":
					return !strings.HasPrefix(dir+"/", "internal/experiments/") && !strings.HasPrefix(dir+"/", "examples/")
				case modulePath + "/internal/cluster":
					return dir == "cmd/csagg" || dir == "internal/baseline" || dir == "internal/experiments" || dir == "examples/topk"
				case modulePath + "/internal/recovery", modulePath + "/internal/outlier":
					return dir == "internal/cluster" || dir == "cmd/csagg" && path == modulePath+"/internal/recovery"
				}
				return dir == "cmd/csagg" && path == modulePath+"/internal/queries"
			})
		},
		fixtures: []map[string]string{
			{"cmd/csnode/baseline.go": `package main; import _ "csoutlier/internal/baseline"`},
			{"cmd/csagg/collect.go": `package main; import _ "csoutlier/internal/cluster"`},
			{"internal/baseline/pull.go": `package baseline; import _ "csoutlier/internal/cluster"`},
			{"internal/experiments/pull.go": `package experiments; import _ "csoutlier/internal/cluster"`},
			{"examples/topk/pull.go": `package main; import _ "csoutlier/internal/cluster"`},
			{"internal/cluster/solve.go": `package cluster; import _ "csoutlier/internal/recovery"`},
			{"internal/cluster/select.go": `package cluster; import _ "csoutlier/internal/outlier"`},
		},
	},
	{
		id:      "one-round-types",
		name:    "one set of pull-round types: cluster_api.go declares no struct but ClusterReport, and internal/cluster no exported …Options type but Options and ServeOptions",
		section: "pr44",
		check: func(p *program) []string {
			var out []string
			eachFile(p, false, func(_ *pkg, f *file) {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					name := ts.Name.Name
					_, isStruct := ts.Type.(*ast.StructType)
					switch {
					case f.name == "cluster_api.go" && isStruct && name != "ClusterReport",
						dirOf(f) == "internal/cluster" && ts.Name.IsExported() && strings.HasSuffix(name, "Options") && name != "Options" && name != "ServeOptions":
						out = append(out, at(p, ts.Pos())+": type "+name)
					}
					return false
				})
			})
			return out
		},
		fixtures: []map[string]string{
			{"cluster_api.go": `package csoutlier; type NodeReport struct{}`},
			{"internal/cluster/collect2.go": `package cluster; type CollectOptions struct{ MinNodes int }`},
		},
	},
	{
		id:      "one-push-protocol",
		name:    "one push protocol: no query on the push wire",
		section: "pr28",
		check: func(p *program) []string {
			out := idents(p, false, func(name string) bool {
				for _, gone := range []string{"RemotePoint", "QueryReply", "QueryRejected", "MaxQueryBytes"} {
					if strings.Contains(name, gone) {
						return true
					}
				}
				return false
			})
			funcs(p, func(f *file, fd *ast.FuncDecl) {
				if fd.Name.Name == "PointQuery" && fd.Recv != nil && recvName(fd) == "Client" {
					out = append(out, at(p, fd.Pos())+": Client.PointQuery")
				}
			})
			inspect(p, false, func(_ *pkg, f *file, n ast.Node) {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "pointq_remote") {
					out = append(out, at(p, lit.Pos())+": "+lit.Value)
				}
			})
			return out
		},
		fixtures: []map[string]string{
			{"internal/stream/remote.go": `package stream; func (c *Client) PointQuery() {}`},
			{"internal/stream/family.go": `package stream; const family = "pointq_remote_queries_total"`},
		},
	},
	{
		id:      "pure-books",
		name:    "the push protocol decides in pure books: internal/stream's book.go and outbox.go import no net, sync, os, log or internal/obs and call no time.Now or time.Since",
		section: "pr52",
		check: func(p *program) []string {
			isBook := func(f *file) bool {
				return f.name == "internal/stream/book.go" || f.name == "internal/stream/outbox.go"
			}
			out := imports(p, func(f *file, path string) bool {
				switch path {
				case "net", "sync", "os", "log", modulePath + "/internal/obs":
					return isBook(f)
				}
				return false
			})
			return append(out, uses(p, func(f *file, obj types.Object) bool {
				return isBook(f) && (isFunc(obj, "time", "Now") || isFunc(obj, "time", "Since"))
			})...)
		},
		fixtures: []map[string]string{
			{"internal/stream/book.go": `package stream; import "sync"; var bookMu sync.Mutex`},
			{"internal/stream/outbox.go": `package stream; import "time"; func stamped() time.Duration { return time.Since(time.Now()) }`},
		},
	},
	{
		id:      "metric-families",
		name:    "every metric family README, DESIGN or the verify skill names is registered: a string literal of non-test Go outside benchmark/",
		section: "pr28",
		check:   staleFamilies,
		fixtures: []map[string]string{
			{"README.md": "Scrape `stream_bogus_total` for the count.\n"},
		},
	},
	{
		id:      "changes-entry-length",
		name:    "every CHANGES.md entry is at most 600 bytes: the evidence lives in EXPERIMENTS.md",
		section: "pr35",
		check:   longChanges,
		fixtures: []map[string]string{
			{"CHANGES.md": "- short: entry.\n- long: " + strings.Repeat("entry ", 100) + "\n"},
			{"CHANGES.md": "- short: entry.\nFOUND: " + strings.Repeat("entry ", 100) + "\n"},
		},
	},
	{
		id:      "evidence-log-length",
		name:    "at most five per-PR sections of EXPERIMENTS.md run in full: an older one is a stub naming the commit that holds it",
		section: "pr38",
		check:   fullEvidenceSections,
		fixtures: []map[string]string{
			{"EXPERIMENTS.md": strings.Repeat("## Extension: a change (`pr1`)\n\none\ntwo\nthree\n\n", 6)},
		},
	},
	{
		id:      "product-apart",
		name:    "the product imports nothing from the evaluation or the harness, and internal/cluster only from cluster_api.go and cmd/csnode",
		section: "pr43",
		check:   productApart,
		report:  setLines,
		fixtures: []map[string]string{
			{"internal/stream/eval.go": `package stream; import _ "csoutlier/internal/workload"`},
			{"internal/tier/rng.go": `package tier; import _ "csoutlier/internal/xrand/xrandtest"`},
			{"detect_pull.go": `package csoutlier; import _ "csoutlier/internal/cluster"`},
		},
	},
	{
		id:      "doc-size",
		name:    "README.md and DESIGN.md stay within their byte caps",
		section: "pr43",
		check:   bigDocs,
		fixtures: []map[string]string{
			{"README.md": strings.Repeat("line\n", maxDocBytes["README.md"]/5+1)},
			{"DESIGN.md": strings.Repeat("line\n", maxDocBytes["DESIGN.md"]/5+1)},
		},
	},
	{
		id:      "surface",
		name:    "every func, method, const and var has a caller outside tests (DESIGN.md lists the exceptions), and every …Options or …Config field a writer (no exceptions)",
		section: "pr31",
		check:   surface,
		fixtures: []map[string]string{
			{"internal/fixture/dead.go": `package fixture; func Unused() {}`},
			{"internal/fixture/knob.go": `package fixture; type KnobOptions struct{ Knob int }`},
			{"internal/fixture/cfg.go": `package fixture; type KnobConfig struct{ Knob int }`},
		},
	},
}

func TestArchitecture(t *testing.T) {
	mod := loadModule(t)
	sections := experimentsSections(mod)
	for _, r := range rules {
		t.Run(r.id, func(t *testing.T) {
			if !sections[r.section] {
				t.Errorf("rule %q names EXPERIMENTS.md section %q, which has no heading", r.name, r.section)
			}
			for _, v := range r.check(mod) {
				t.Errorf("%s: %s", r.name, v)
			}
			if r.report != nil {
				t.Log(r.report(mod))
			}
			for i, fx := range r.fixtures {
				if len(r.check(overlay(t, fx))) == 0 {
					t.Errorf("%s: fixture %d does not make the rule fire", r.name, i)
				}
			}
		})
	}
}

// experimentsSections returns the tags EXPERIMENTS.md's headings carry,
// such as pr24 in "## Extension: one serialisation point (`pr24`)".
var sectionTag = regexp.MustCompile("`([a-z0-9]+)`")

func experimentsSections(p *program) map[string]bool {
	tags := map[string]bool{}
	for _, line := range strings.Split(p.docs["EXPERIMENTS.md"], "\n") {
		if strings.HasPrefix(line, "## ") {
			for _, m := range sectionTag.FindAllStringSubmatch(line, -1) {
				tags[m[1]] = true
			}
		}
	}
	return tags
}

// metricFamily matches a metric family name in a doc; a name ending in
// .go is a file, not a family. seriesSuffix is what a histogram's series
// add to its name.
var (
	metricFamily = regexp.MustCompile(`\b(stream|pointq|recovery|tier|shard|cluster)_[A-Za-z0-9_]*[A-Za-z0-9](\.go)?`)
	seriesSuffix = regexp.MustCompile(`_(bucket|sum|count)$`)
)

// staleFamilies returns the metric families the docs name that no
// product code registers. A {label} selector is never part of a match,
// and a _bucket/_sum/_count series may name its histogram.
func staleFamilies(p *program) []string {
	literals := map[string]bool{}
	inspect(p, false, func(_ *pkg, f *file, n ast.Node) {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && dirOf(f) != "benchmark" {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				literals[s] = true
			}
		}
	})
	var out []string
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		seen := map[string]bool{}
		for _, name := range metricFamily.FindAllString(p.docs[doc], -1) {
			if strings.HasSuffix(name, ".go") || seen[name] {
				continue
			}
			seen[name] = true
			if !literals[name] && !literals[seriesSuffix.ReplaceAllString(name, "")] {
				out = append(out, doc+": "+name)
			}
		}
	}
	return out
}

// maxChangesEntry is the length limit of one CHANGES.md entry, in
// bytes (what wc -c counts).
const maxChangesEntry = 600

// longChanges returns the CHANGES.md entries over maxChangesEntry. An
// entry is a "- " line, or a "FOUND:" or "MENDED:" line (a fault seen
// and left, or mended later), and the lines that continue it.
func longChanges(p *program) []string {
	var entries []string
	for _, line := range strings.Split(p.docs["CHANGES.md"], "\n") {
		switch {
		case strings.HasPrefix(line, "- "), strings.HasPrefix(line, "FOUND:"), strings.HasPrefix(line, "MENDED:"):
			entries = append(entries, line)
		case strings.TrimSpace(line) != "" && len(entries) > 0:
			entries[len(entries)-1] += "\n" + line
		}
	}
	var out []string
	for _, e := range entries {
		if len(e) > maxChangesEntry {
			head, _, _ := strings.Cut(e, ":")
			out = append(out, fmt.Sprintf("CHANGES.md: %q is %d bytes, over %d", head, len(e), maxChangesEntry))
		}
	}
	return out
}

// maxFullSections is how many per-PR sections EXPERIMENTS.md keeps in
// full, and maxStubLines the non-blank lines a stub's body may have.
const (
	maxFullSections = 5
	maxStubLines    = 2
)

// prHeading matches the heading of a per-PR section of EXPERIMENTS.md.
var prHeading = regexp.MustCompile("^## .*`pr[0-9]+`")

// fullEvidenceSections reports EXPERIMENTS.md when more than
// maxFullSections per-PR sections run longer than a stub. A section
// runs from its "## " heading to the next one.
func fullEvidenceSections(p *program) []string {
	var full []string
	head, lines := "", 0
	flush := func() {
		if head != "" && lines > maxStubLines {
			full = append(full, head)
		}
	}
	for _, line := range strings.Split(p.docs["EXPERIMENTS.md"], "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			flush()
			head, lines = "", 0
			if prHeading.MatchString(line) {
				head = line
			}
		case strings.TrimSpace(line) != "":
			lines++
		}
	}
	flush()
	if len(full) <= maxFullSections {
		return nil
	}
	return []string{fmt.Sprintf("EXPERIMENTS.md: %d per-PR sections run in full, over %d; stub the oldest, %q",
		len(full), maxFullSections, full[0])}
}

// codeSets partitions the module's packages by role, each listed once:
// the product the paper's pipeline deploys, the pull transport, the
// evaluation and the test harness. Examples, cmd/obscheck and
// benchmark/ belong to none.
var codeSets = []struct {
	name string
	dirs []string
}{
	{"product", []string{"", "internal/stream", "internal/tier", "internal/sensing", "internal/recovery", "internal/linalg",
		"internal/frame", "internal/keydict", "internal/obs", "internal/xrand", "internal/queries", "internal/outlier",
		"cmd/csstreamd", "cmd/csnode"}},
	{"pull", []string{"internal/cluster", "cmd/csagg"}},
	{"evaluation", []string{"internal/experiments", "internal/mapreduce", "internal/baseline", "internal/theory",
		"internal/workload", "cmd/csbench", "cmd/csgen"}},
	{"harness", []string{"internal/simtest", "internal/xrand/xrandtest"}},
}

// setOf returns the name of the set that lists dir, or "".
func setOf(dir string) string {
	for _, set := range codeSets {
		for _, d := range set.dirs {
			if d == dir {
				return set.name
			}
		}
	}
	return ""
}

// productApart returns the product's imports of the evaluation or the
// harness, and of internal/cluster outside the two files that hold the
// pull protocol today; and any set entry listed twice or naming no
// package.
func productApart(p *program) []string {
	var out []string
	seen := map[string]bool{}
	for _, set := range codeSets {
		for _, d := range set.dirs {
			if seen[d] || p.pkg(path.Join(modulePath, d)) == nil {
				out = append(out, fmt.Sprintf("%s set: %q is listed twice or is no package", set.name, d))
			}
			seen[d] = true
		}
	}
	return append(out, imports(p, func(f *file, imp string) bool {
		if setOf(dirOf(f)) != "product" || !strings.HasPrefix(imp, modulePath+"/") {
			return false
		}
		switch setOf(strings.TrimPrefix(imp, modulePath+"/")) {
		case "evaluation", "harness":
			return true
		case "pull":
			return f.name != "cluster_api.go" && dirOf(f) != "cmd/csnode"
		}
		return false
	})...)
}

// setLines reports the non-test lines of each set, of the packages no
// set lists, and of benchmark/.
func setLines(p *program) string {
	lines := map[string]int{}
	var others []string
	eachFile(p, false, func(pk *pkg, f *file) {
		set := setOf(pk.dir)
		switch {
		case pk.dir == "benchmark":
			set = "benchmark"
		case set == "":
			set = "other"
			if len(others) == 0 || others[len(others)-1] != pk.dir {
				others = append(others, pk.dir)
			}
		}
		lines[set] += p.fset.File(f.ast.Pos()).LineCount()
	})
	var b strings.Builder
	b.WriteString("non-test lines:")
	for _, set := range codeSets {
		fmt.Fprintf(&b, " %s %d,", set.name, lines[set.name])
	}
	fmt.Fprintf(&b, " other %d %v, benchmark %d", lines["other"], others, lines["benchmark"])
	return b.String()
}

// maxDocBytes caps the two documents that describe the system at the
// sizes their last edit left: lower a cap after a cut, never raise it.
var maxDocBytes = map[string]int{"README.md": 43947, "DESIGN.md": 49728}

// bigDocs returns the docs over their cap.
func bigDocs(p *program) []string {
	var out []string
	for name, limit := range maxDocBytes {
		if n := len(p.docs[name]); n > limit {
			out = append(out, fmt.Sprintf("%s is %d bytes, over %d", name, n, limit))
		}
	}
	return out
}

// The helpers below walk the program for the checks: every non-test
// file (and the test files where asked), through the AST or through the
// type checker's view of it.

func dirOf(f *file) string {
	i := strings.LastIndex(f.name, "/")
	if i < 0 {
		return ""
	}
	return f.name[:i]
}

func at(p *program, pos token.Pos) string {
	position := p.fset.Position(pos)
	return fmt.Sprintf("%s:%d", position.Filename, position.Line)
}

func eachFile(p *program, tests bool, fn func(*pkg, *file)) {
	for _, pk := range p.pkgs {
		for _, f := range pk.files {
			if tests || !f.test {
				fn(pk, f)
			}
		}
	}
}

func inspect(p *program, tests bool, fn func(*pkg, *file, ast.Node)) {
	eachFile(p, tests, func(pk *pkg, f *file) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil {
				fn(pk, f, n)
			}
			return true
		})
	})
}

// idents returns the identifiers, declared or used, whose name matches.
func idents(p *program, tests bool, match func(string) bool) []string {
	var out []string
	inspect(p, tests, func(_ *pkg, _ *file, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && match(id.Name) {
			out = append(out, at(p, id.Pos())+": "+id.Name)
		}
	})
	return out
}

// imports returns the import edges of non-test files that match.
func imports(p *program, match func(*file, string) bool) []string {
	var out []string
	eachFile(p, false, func(_ *pkg, f *file) {
		for _, spec := range f.ast.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && match(f, path) {
				out = append(out, at(p, spec.Pos())+": imports "+path)
			}
		}
	})
	return out
}

// uses returns the references non-test code makes to objects that match.
func uses(p *program, match func(*file, types.Object) bool) []string {
	var out []string
	inspect(p, false, func(pk *pkg, f *file, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pk.info.Uses[id]; obj != nil && match(f, obj) {
				out = append(out, at(p, id.Pos())+": "+id.Name)
			}
		}
	})
	return out
}

// funcs visits every func declaration of non-test code.
func funcs(p *program, fn func(*file, *ast.FuncDecl)) {
	eachFile(p, false, func(_ *pkg, f *file) {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn(f, fd)
			}
		}
	})
}

// calls visits every call in non-test code with the object it calls
// (nil for a conversion or a call of a func value the checker cannot
// name).
func calls(p *program, fn func(*pkg, *file, *ast.CallExpr, types.Object)) {
	inspect(p, false, func(pk *pkg, f *file, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			fn(pk, f, call, callee(pk, call))
		}
	})
}

// callee is the object a call expression of pk calls, or nil.
func callee(pk *pkg, e ast.Expr) types.Object {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	return pk.info.Uses[id]
}

func isFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isAggMetrics reports whether e is the aggregator's metrics: a
// .metrics selector, or a value of type *aggMetrics.
func isAggMetrics(pk *pkg, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "metrics" {
		return true
	}
	ptr, ok := pk.info.Types[e].Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "aggMetrics"
}

func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
