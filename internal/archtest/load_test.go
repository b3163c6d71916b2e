// Package archtest holds the module's architecture rules as one Go test.
// It parses every .go file of the module once, type-checks the non-test
// ones (benchmark/ included, as one more caller), and runs the rule
// table of rules_test.go against that one view. Every file here is a
// _test.go file: the package ships nothing.
package archtest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const (
	modulePath = "csoutlier"
	moduleRoot = "../.."
)

// docFiles are the documents the rules read, relative to the module
// root.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md", ".claude/skills/verify/SKILL.md"}

// pkg is one directory's files: all of them parsed, the non-test ones
// type-checked.
type pkg struct {
	path  string // import path, e.g. csoutlier/internal/stream
	dir   string // relative to the module root, "" for the root
	files []*file
	types *types.Package
	info  *types.Info
}

type file struct {
	name string // relative to the module root
	ast  *ast.File
	test bool
}

// program is what the rules see: packages sorted by path, and the docs.
type program struct {
	fset *token.FileSet
	pkgs []*pkg
	docs map[string]string
}

var (
	moduleOnce sync.Once
	moduleProg *program
	moduleErr  error
)

// loadModule parses every .go file under the module root (testdata and
// dot-directories skipped), type-checks the non-test files and reads the
// docs. benchmark/ is a module of its own that imports this one; it
// loads as the package csoutlier/benchmark, a caller like any other.
func loadModule(t *testing.T) *program {
	t.Helper()
	moduleOnce.Do(func() { moduleProg, moduleErr = parseModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleProg
}

func parseModule() (*program, error) {
	srcs := map[string]string{}
	err := filepath.WalkDir(moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != moduleRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, p)
		srcs[filepath.ToSlash(rel)] = string(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, name := range docFiles {
		src, err := os.ReadFile(filepath.Join(moduleRoot, filepath.FromSlash(name)))
		if err != nil {
			return nil, err
		}
		srcs[name] = string(src)
	}
	prog := &program{fset: token.NewFileSet(), docs: map[string]string{}}
	pkgs, errs := prog.add(srcs, nil)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking the module: %v (%d errors)", errs[0], len(errs))
	}
	prog.pkgs = pkgs
	return prog, nil
}

// add parses srcs (module-relative name → source) into packages, one per
// directory, and type-checks them. A .go file joins the package base
// holds for its directory, if any; any other file is a doc. Imports
// resolve to the packages being added, then to base, then to the
// toolchain's export data.
func (prog *program) add(srcs map[string]string, base *program) ([]*pkg, []error) {
	byDir := map[string]*pkg{}
	var names []string
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		if !strings.HasSuffix(name, ".go") {
			prog.docs[name] = srcs[name]
			continue
		}
		f, err := parser.ParseFile(prog.fset, name, srcs[name], parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		dir := path.Dir(name)
		if dir == "." {
			dir = ""
		}
		p := byDir[dir]
		if p == nil {
			p = &pkg{path: modulePath, dir: dir}
			if dir != "" {
				p.path += "/" + dir
			}
			if base != nil {
				if old := base.pkg(p.path); old != nil {
					p.files = append(p.files, old.files...)
				}
			}
			byDir[dir] = p
		}
		p.files = append(p.files, &file{name: name, ast: f, test: strings.HasSuffix(name, "_test.go")})
	}
	l := &loader{fset: prog.fset, byPath: map[string]*pkg{}, pending: map[string]bool{}}
	if base != nil {
		for _, p := range base.pkgs {
			l.byPath[p.path] = p
		}
	}
	var pkgs []*pkg
	for _, p := range byDir {
		l.byPath[p.path] = p
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].path < pkgs[j].path })
	for _, p := range pkgs {
		if err := l.check(p); err != nil {
			l.errs = append(l.errs, err)
		}
	}
	return pkgs, append(errs, l.errs...)
}

func (prog *program) pkg(path string) *pkg {
	for _, p := range prog.pkgs {
		if p.path == path {
			return p
		}
	}
	return nil
}

// overlay returns the module with srcs added: each .go file joins the
// package of its directory, which is type-checked again with it (type
// errors are tolerated: a fixture may name what the module no longer
// has); any other file replaces that doc.
func overlay(t *testing.T, srcs map[string]string) *program {
	t.Helper()
	mod := loadModule(t)
	prog := &program{fset: mod.fset, docs: map[string]string{}}
	for name, text := range mod.docs {
		prog.docs[name] = text
	}
	added, _ := prog.add(srcs, mod)
	replaced := map[string]*pkg{}
	for _, p := range added {
		replaced[p.path] = p
	}
	for _, p := range mod.pkgs {
		if replaced[p.path] == nil {
			prog.pkgs = append(prog.pkgs, p)
		}
	}
	prog.pkgs = append(prog.pkgs, added...)
	sort.Slice(prog.pkgs, func(i, j int) bool { return prog.pkgs[i].path < prog.pkgs[j].path })
	return prog
}

// standalone returns a program of srcs alone, for rules whose fixtures
// need a whole program of their own.
func standalone(t *testing.T, srcs map[string]string) *program {
	t.Helper()
	prog := &program{fset: token.NewFileSet(), docs: map[string]string{}}
	pkgs, errs := prog.add(srcs, nil)
	if len(errs) > 0 {
		t.Fatalf("fixture: %v", errs[0])
	}
	prog.pkgs = pkgs
	return prog
}

// loader type-checks packages of a program on demand and imports the
// standard library from the toolchain's export data.
type loader struct {
	fset    *token.FileSet
	byPath  map[string]*pkg
	pending map[string]bool
	errs    []error
}

var (
	stdOnce sync.Once
	stdImp  types.Importer
)

func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.byPath[path]
	if !ok {
		stdOnce.Do(func() { stdImp = importer.Default() })
		return stdImp.Import(path)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) check(p *pkg) error {
	if p.types != nil {
		return nil
	}
	if l.pending[p.path] {
		return fmt.Errorf("import cycle through %s", p.path)
	}
	l.pending[p.path] = true
	defer delete(l.pending, p.path)
	var files []*ast.File
	for _, f := range p.files {
		if !f.test {
			files = append(files, f.ast)
		}
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	tp, _ := conf.Check(p.path, l.fset, files, info)
	p.types, p.info = tp, info
	return nil
}
