package streamhist_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreachableCode is the ratchet that keeps code no program runs from
// accreting under internal/. It parses every non-test file of the repository,
// the nested benchmark module included, type-checks them all in one universe
// (module packages from source, the standard library from export data), and
// takes the transitive closure of the identifiers function bodies use, keyed
// by each function's generic origin. The closure starts from:
//
//   - every function and method of a package outside internal/ (the commands,
//     the examples, the benchmark of record, the root facade);
//   - every init and main;
//   - everything a package-level var initialiser references;
//   - every method of a module type that implements an interface holding that
//     method, whether the interface is the module's, a standard-library
//     package's, the universe's error, or one of the unnamed interfaces the
//     errors package asserts on (Unwrap, Is, As), promoted methods included.
//
// Every function and method under internal/ outside the closure is reported,
// and so is every top-level const, var and type under internal/ that neither
// a reached function nor another declaration refers to. Tests count as no
// caller: a helper only its own package's tests call is dead code with a test.
// testdata/unreachable.golden lists the exceptions, one per line as
// "<name>\t<reason>", each reason opening with its class:
//
//	(a) a helper another package's tests call;
//	(b) a reference a test compares against;
//	(c) the subject of a `make fuzz` target;
//	(d) code only a root paper benchmark calls.
//
// The test fails on an unreached declaration the golden lacks, on a golden
// entry that is reachable or gone, and on an entry without a classed reason.
// There is no -update: an entry is added by hand, so every one is reviewed.
// The check reads source only and behaves the same under -race.
func TestNoUnreachableCode(t *testing.T) {
	u := loadUniverse(t)
	found := u.unreachable()

	golden := readUnreachableGolden(t, "testdata/unreachable.golden")
	classes := map[string]int{}
	for name, reason := range golden {
		classes[reason[:3]]++
		if _, ok := found[name]; !ok {
			t.Errorf("%s is listed in testdata/unreachable.golden but is reachable or no longer declared: drop its line", name)
		}
	}
	var missing []string
	for name, pos := range found {
		if _, ok := golden[name]; !ok {
			missing = append(missing, fmt.Sprintf("%s (%s)", name, pos))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no program reaches %s: delete it, or list it in testdata/unreachable.golden with a classed reason", m)
	}
	t.Logf("%d golden entries: (a) %d, (b) %d, (c) %d, (d) %d",
		len(golden), classes["(a)"], classes["(b)"], classes["(c)"], classes["(d)"])
}

// readUnreachableGolden returns the golden's entries by name. Blank lines
// and lines starting with # are commentary.
func readUnreachableGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, "\t")
		reason = strings.TrimSpace(reason)
		switch {
		case len(reason) < 5 || !strings.Contains("(a)(b)(c)(d)", reason[:3]) || reason[3] != ' ':
			t.Errorf("%s:%d: %s: the reason must open with its class, (a) to (d), and name the test involved", path, line, name)
		case entries[name] != "":
			t.Errorf("%s:%d: %s is listed twice", path, line, name)
		default:
			entries[name] = reason
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// errorsInterfaces declares the method sets the errors package asserts on
// without naming them, so the methods that satisfy them count as reached.
const errorsInterfaces = `package errorsifaces
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// universe is every non-test package of the repository, type-checked
// together.
type universe struct {
	fset   *token.FileSet
	module string
	info   *types.Info
	pkgs   map[string]*types.Package // by import path
	files  map[string][]*ast.File    // by import path
	funcs  map[*types.Func]*ast.FuncDecl
	ifaces []*types.Interface
}

func loadUniverse(t *testing.T) *universe {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module, _, _ := strings.Cut(strings.TrimPrefix(string(mod), "module "), "\n")
	u := &universe{
		fset:   token.NewFileSet(),
		module: strings.TrimSpace(module),
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		funcs:  map[*types.Func]*ast.FuncDecl{},
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(u.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := u.module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir
		}
		u.files[ip] = append(u.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	std := importer.ForCompiler(u.fset, "gc", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p := u.pkgs[path]; p != nil {
			return p, nil
		}
		files, ok := u.files[path]
		if !ok {
			return std.Import(path)
		}
		p, err := (&types.Config{Importer: imp}).Check(path, u.fset, files, u.info)
		u.pkgs[path] = p
		return p, err
	}
	for path := range u.files {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	ef, err := parser.ParseFile(u.fset, "errorsifaces.go", errorsInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := (&types.Config{}).Check("errorsifaces", u.fset, []*ast.File{ef}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, files := range u.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					u.funcs[u.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}

	// Every interface with methods the module can see: its own, every
	// package it imports directly or not, the universe's, and the errors
	// package's unnamed ones.
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					u.ifaces = append(u.ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range u.pkgs {
		visit(p)
	}
	visit(extra)
	u.ifaces = append(u.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return u
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (u *universe) internal(p *types.Package) bool {
	return strings.HasPrefix(p.Path(), u.module+"/internal/")
}

// qualified names a declaration as the golden does: its package path under
// internal/, then the receiver's type name for a method.
func (u *universe) qualified(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), u.module+"/internal/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			return pkg + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// unreachable returns every internal/ declaration no program reaches, by
// qualified name, with its position.
func (u *universe) unreachable() map[string]token.Position {
	reached := map[*types.Func]bool{}
	used := map[types.Object]bool{}
	var queue []*types.Func
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	// refs marks every object n refers to, other than self, as used, and
	// every function among them as reached.
	refs := func(n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := u.info.Uses[id]; obj != nil && !self[obj] {
					if fn, ok := obj.(*types.Func); ok {
						reach(fn)
						obj = fn.Origin()
					}
					used[obj] = true
				}
			}
			return true
		})
	}

	for fn, fd := range u.funcs {
		if !u.internal(fn.Pkg()) || (fd.Recv == nil && (fn.Name() == "init" || fn.Name() == "main")) {
			reach(fn)
		}
	}
	for _, files := range u.files {
		for _, spec := range specs(files) {
			self := map[types.Object]bool{}
			for _, name := range declared(spec) {
				self[u.info.Defs[name]] = true
			}
			refs(spec, self)
		}
	}
	u.reachInterfaceMethods(reach)

	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if fd := u.funcs[fn]; fd != nil {
			refs(fd, nil)
		}
	}

	found := map[string]token.Position{}
	for fn, fd := range u.funcs {
		if u.internal(fn.Pkg()) && !reached[fn] && fn.Name() != "_" {
			found[u.qualified(fn)] = u.fset.Position(fd.Pos())
		}
	}
	for path, p := range u.pkgs {
		if !u.internal(p) {
			continue
		}
		for _, spec := range specs(u.files[path]) {
			for _, name := range declared(spec) {
				if obj := u.info.Defs[name]; name.Name != "_" && !used[obj] {
					found[u.qualified(obj)] = u.fset.Position(name.Pos())
				}
			}
		}
	}
	return found
}

// specs returns the const, var, type and import specs of files.
func specs(files []*ast.File) []ast.Spec {
	var out []ast.Spec
	for _, f := range files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				out = append(out, gd.Specs...)
			}
		}
	}
	return out
}

// declared returns the names a const, var or type spec declares.
func declared(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// reachInterfaceMethods reaches every method of a module type that
// implements an interface holding that method: a call through the interface
// names the interface's method, not the concrete one.
func (u *universe) reachInterfaceMethods(reach func(*types.Func)) {
	for _, p := range u.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			for _, T := range []types.Type{named, types.NewPointer(named)} {
				mset := types.NewMethodSet(T)
				if mset.Len() == 0 {
					continue
				}
				for _, it := range u.ifaces {
					if it.NumMethods() > mset.Len() || !types.Implements(T, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							reach(sel.Obj().(*types.Func))
						}
					}
				}
			}
		}
	}
}
