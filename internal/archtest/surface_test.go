package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The surface rule: a func, method, const or var needs a use in
// non-test code other than its own body, a use that is itself live (the
// uses inside a dead declaration do not count, iterated to a fixpoint).
// An exported name of a package in surfaceStrict needs that use from
// outside its package; a name only its package uses is unexported.
// Types and struct fields are exempt, but for the fields of an
// exported …Options or …Config struct: each is a setting, and needs a writer in
// non-test code outside its package (a composite-literal key, or an
// assignment, increment or address-of through a selector) — a default
// its own package fills in does not count. A method is used where a
// used interface method it implements is: the call through the
// interface names it. The funcs, methods, consts and vars only tests
// use are listed, one reason each, between the allowlist markers of
// DESIGN.md; an option field cannot be: a setting only tests write is
// deleted, unexported or derived.

// surfaceExempt directories declare names the rule does not hold to
// account: their callers are tests by design (simtest, xrandtest) or
// they are only a caller (benchmark). Their uses still count.
var surfaceExempt = map[string]bool{
	"internal/simtest":         true,
	"internal/xrand/xrandtest": true,
	"benchmark":                true,
}

// surfaceStrict directories are the product's API and its two
// service packages.
var surfaceStrict = map[string]bool{
	"":                true,
	"internal/stream": true,
	"internal/tier":   true,
}

const allowlistDoc = "DESIGN.md"

var allowEntry = regexp.MustCompile("^- `([^`]+)`: (.*)$")

// allowlist reads the entries between the markers of DESIGN.md's
// allowlist section: qualified name → reason.
func allowlist(prog *program) (map[string]string, []string) {
	doc := prog.docs[allowlistDoc]
	begin := strings.Index(doc, "<!-- archtest:allowlist -->")
	end := strings.Index(doc, "<!-- /archtest:allowlist -->")
	if begin < 0 || end < begin {
		return nil, []string{allowlistDoc + ": no archtest:allowlist markers"}
	}
	allow := map[string]string{}
	var bad []string
	for _, line := range strings.Split(doc[begin:end], "\n")[1:] {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		m := allowEntry.FindStringSubmatch(line)
		if m == nil || strings.TrimSpace(m[2]) == "" {
			bad = append(bad, fmt.Sprintf("%s: allowlist line %q is not \"- `name`: reason\"", allowlistDoc, line))
			continue
		}
		allow[m[1]] = m[2]
	}
	return allow, bad
}

// decl is one func, method, const or var the rule holds to account.
type decl struct {
	obj      types.Object
	pkg      *pkg
	name     string    // qualified: pkgname.Name or pkgname.Type.Method
	from, to token.Pos // its own declaration; a use inside does not count
	strict   bool      // an exported name that needs a use from outside
	root     bool      // allowlisted: live whatever uses it
	used     map[string]bool
	dead     bool
}

func (d *decl) usedOutside() bool {
	for path := range d.used {
		if path != d.pkg.path {
			return true
		}
	}
	return false
}

type use struct {
	pos  token.Pos
	from string // package path
}

// surface checks the rule and returns its findings, one per name.
func surface(prog *program) []string {
	allow, findings := allowlist(prog)
	decls := declarations(prog)
	byName := map[string]*decl{}
	for _, d := range decls {
		byName[d.name] = d
		if _, ok := allow[d.name]; ok {
			d.root = true
		}
	}
	liveUses(prog, decls)
	for _, d := range decls {
		pos := prog.fset.Position(d.from)
		switch {
		case d.root && len(d.used) > 0 && (!d.strict || d.usedOutside()):
			findings = append(findings, fmt.Sprintf("%s:%d: %s has a non-test caller: drop its %s allowlist entry", pos.Filename, pos.Line, d.name, allowlistDoc))
		case d.root:
		case d.dead:
			findings = append(findings, fmt.Sprintf("%s:%d: %s has no caller outside tests: delete it, move it into a _test.go file, or allowlist it in %s", pos.Filename, pos.Line, d.name, allowlistDoc))
		case d.strict && !d.usedOutside():
			findings = append(findings, fmt.Sprintf("%s:%d: %s is used only inside its package: unexport it", pos.Filename, pos.Line, d.name))
		}
	}
	fields := optionFields(prog)
	for _, f := range fields {
		_, allowed := allow[f.name]
		pos := prog.fset.Position(f.pos)
		switch {
		case allowed:
			findings = append(findings, fmt.Sprintf("%s:%d: %s is an option field, which %s cannot allowlist: drop its entry", pos.Filename, pos.Line, f.name, allowlistDoc))
		case !f.written:
			findings = append(findings, fmt.Sprintf("%s:%d: %s has no writer outside tests and its package: delete the option, unexport it or derive it", pos.Filename, pos.Line, f.name))
		}
	}
	for name := range allow {
		if byName[name] == nil && fields[name] == nil {
			findings = append(findings, fmt.Sprintf("%s: allowlist entry %s names nothing", allowlistDoc, name))
		}
	}
	sort.Strings(findings)
	return findings
}

// declarations lists the package-level funcs, methods, consts and vars
// of every package the rule holds to account.
func declarations(prog *program) []*decl {
	var decls []*decl
	for _, p := range prog.pkgs {
		if surfaceExempt[p.dir] {
			continue
		}
		qual := p.types.Name()
		if qual == "main" {
			qual = p.dir
		}
		add := func(obj types.Object, name string, n ast.Node, strict bool) {
			if obj != nil && obj.Name() != "_" {
				decls = append(decls, &decl{obj: obj, pkg: p, name: name, from: n.Pos(), to: n.End(), strict: strict && obj.Exported()})
			}
		}
		for _, f := range p.files {
			if f.test {
				continue
			}
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" || (d.Name.Name == "main" && d.Recv == nil) {
						continue
					}
					obj := p.info.Defs[d.Name]
					if d.Recv == nil {
						add(obj, qual+"."+d.Name.Name, d, surfaceStrict[p.dir])
					} else if recv := recvNamed(obj); recv != nil {
						add(obj, qual+"."+recv.Obj().Name()+"."+d.Name.Name, d, surfaceStrict[p.dir] && recv.Obj().Exported())
					}
				case *ast.GenDecl:
					if d.Tok != token.CONST && d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						vs := s.(*ast.ValueSpec)
						for _, id := range vs.Names {
							add(p.info.Defs[id], qual+"."+id.Name, vs, surfaceStrict[p.dir])
						}
					}
				}
			}
		}
	}
	return decls
}

// liveUses fills each declaration's used set from the uses outside its
// own body, to a fixpoint: a declaration with no live use is dead, and
// the uses inside it stop counting.
func liveUses(prog *program, decls []*decl) {
	byObj := map[types.Object]*decl{}
	for _, d := range decls {
		byObj[d.obj] = d
	}
	direct := map[*decl][]use{}
	calls := map[*types.Func][]use{} // interface methods called
	for _, p := range prog.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if d := byObj[obj]; d != nil {
				if id.Pos() < d.from || id.Pos() >= d.to {
					direct[d] = append(direct[d], use{id.Pos(), p.path})
				}
			} else if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					calls[fn] = append(calls[fn], use{id.Pos(), p.path})
				}
			}
		}
	}
	implementers := map[*types.Func][]*decl{}
	for fn := range calls {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, d := range decls {
			m, ok := d.obj.(*types.Func)
			if !ok || m.Name() != fn.Name() {
				continue
			}
			if recv := recvNamed(m); recv != nil && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				implementers[fn] = append(implementers[fn], d)
			}
		}
	}
	// Declarations do not nest; the names of one value spec share its
	// range, and a use inside it is dead only when all of them are.
	sort.Slice(decls, func(i, j int) bool { return decls[i].from < decls[j].from })
	inDead := func(pos token.Pos) bool {
		i := sort.Search(len(decls), func(i int) bool { return decls[i].from > pos }) - 1
		if i < 0 || pos >= decls[i].to {
			return false
		}
		for j := i; j >= 0 && decls[j].from == decls[i].from; j-- {
			if !decls[j].dead {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		for _, d := range decls {
			d.used = map[string]bool{}
			for _, u := range direct[d] {
				if !inDead(u.pos) {
					d.used[u.from] = true
				}
			}
		}
		for fn, uses := range calls {
			for _, u := range uses {
				if inDead(u.pos) {
					continue
				}
				for _, d := range implementers[fn] {
					d.used[u.from] = true
					if fn.Pkg() != nil {
						d.used[fn.Pkg().Path()] = true // the interface's package names it
					}
				}
			}
		}
		changed = false
		for _, d := range decls {
			if dead := !d.root && len(d.used) == 0; dead != d.dead {
				d.dead, changed = dead, true
			}
		}
	}
}

// option is one field of an exported …Options or …Config struct.
type option struct {
	name    string // qualified: pkgname.Type.Field
	pos     token.Pos
	written bool // by non-test code outside its package
}

// optionFields lists the exported fields of the exported …Options and
// …Config structs the rule holds to account, by qualified name, and marks the
// ones non-test code outside their package writes.
func optionFields(prog *program) map[string]*option {
	byVar := map[*types.Var]*option{}
	out := map[string]*option{}
	for _, p := range prog.pkgs {
		if surfaceExempt[p.dir] {
			continue
		}
		for _, f := range p.files {
			if f.test {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !isSettings(ts.Name.Name) {
					return false
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if v, ok := p.info.Defs[id].(*types.Var); ok && id.IsExported() {
							o := &option{name: p.types.Name() + "." + ts.Name.Name + "." + id.Name, pos: id.Pos()}
							byVar[v], out[o.name] = o, o
						}
					}
				}
				return false
			})
		}
	}
	write := func(p *pkg, obj types.Object) {
		if v, ok := obj.(*types.Var); ok {
			if o := byVar[v.Origin()]; o != nil && v.Pkg().Path() != p.path {
				o.written = true
			}
		}
	}
	writeSel := func(p *pkg, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(p, p.info.Uses[sel.Sel])
		}
	}
	inspect(prog, false, func(p *pkg, _ *file, n ast.Node) {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				write(p, p.info.Uses[id])
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeSel(p, lhs)
			}
		case *ast.IncDecStmt:
			writeSel(p, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writeSel(p, n.X)
			}
		}
	})
	return out
}

// isSettings reports whether a struct's name makes its fields settings.
func isSettings(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvNamed is the named type a method is declared on, uninstantiated.
func recvNamed(fn types.Object) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil {
		return nil
	}
	return named.Origin()
}

// TestSurfaceRule runs the rule on a program of its own: what counts as
// a use (an interface call, a generic instance, a live caller) and what
// does not (a test, recursion, a dead caller), the strict packages, and
// the allowlist's own checks: an entry for an option field fails
// whether a test (Spare) or main (Stale) writes it.
func TestSurfaceRule(t *testing.T) {
	prog := standalone(t, map[string]string{
		"internal/fix/fix.go": `package fix
func Used()    {}
func Dead()    { helper() }
func helper()  {}
func Allowed() {}
func self()    { self() }
type T struct{}
func (T) M() {}
func (T) N() {}
type G[X any] struct{}
func (G[X]) Get() {}
const K = 1
var V = 2
type Options struct {
	Lit, Assign, Addr, Defaulted, TestOnly, Spare, Stale int
	unexported                                             int
}
func (o *Options) defaults() { o.Defaulted = 1 }
var _ = (*Options).defaults
type Settings struct{ NotAnOption int }
type Config struct{ Set, TestOnly int }`,
		"internal/fix/fix_test.go": `package fix
func use() { Dead(); K++; _ = Options{TestOnly: 1}; _ = Config{TestOnly: 1} }`,
		"internal/stream/stream.go": `package stream
func Local()  {}
func Shared() {}
var _ = Local`,
		"cmd/x/main.go": `package main
import ("csoutlier/internal/fix"; "csoutlier/internal/stream")
type mer interface{ M() }
func main() {
	fix.Used()
	stream.Shared()
	var m mer = fix.T{}
	m.M()
	fix.G[int]{}.Get()
	_ = fix.V
	o := fix.Options{Lit: 1, Stale: 2}
	_ = fix.Config{Set: 1}
	o.Assign = 2
	_ = &o.Addr
}`,
		allowlistDoc: "<!-- archtest:allowlist -->\n" +
			"- `fix.Allowed`: a reference the tests compare against.\n" +
			"- `fix.Used`: main calls it.\n" +
			"- `fix.Gone`: deleted.\n" +
			"- `fix.Options.Spare`: a test sets it.\n" +
			"- `fix.Options.Stale`: main sets it now.\n" +
			"<!-- /archtest:allowlist -->\n",
	})
	var got []string
	for _, f := range surface(prog) {
		got = append(got, findingName.FindStringSubmatch(f)[1])
	}
	want := []string{"fix.Config.TestOnly", "fix.Dead", "fix.Gone", "fix.K", "fix.Options.Defaulted", "fix.Options.Spare", "fix.Options.Stale", "fix.Options.TestOnly", "fix.T.N", "fix.Used", "fix.helper", "fix.self", "stream.Local"}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("surface findings name %v, want %v", got, want)
	}
}

var findingName = regexp.MustCompile(`(?:: |allowlist entry )([A-Za-z0-9_./]+) (?:has|is|names)`)
