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
	"regexp"
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

	golden := readGolden(t, "testdata/unreachable.golden", func(reason string) bool {
		return len(reason) >= 5 && strings.Contains("(a)(b)(c)(d)", reason[:3]) && reason[3] == ' '
	}, "open with its class, (a) to (d), and name the test involved")
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

// TestNoTestOnlyKnobs is the same ratchet for configuration: a field of a
// served configuration struct that no program sets is an option only tests
// use, and belongs in the package's export_test.go, not on the production
// surface. It covers every named exported field of the structs the
// Makefile's KNOB_STRUCTS lists (the ones `make knobs` counts) and looks, in
// the same universe of non-test files, for a write to each: a keyed
// composite literal element or an assignment, in a package-level
// declaration or a function some program reaches (TestNoUnreachableCode's
// closure). A write counts when it is outside the field's own package, or inside it from a parameter of an
// enclosing function or a local computed from one, so a constructor passing
// its caller's value through counts and a default written by withDefaults
// or New does not.
//
// testdata/knobs.golden lists the fields a test must set, one per line as
// "<Struct.Field>\t<reason naming the test>". The test fails on an unset
// field the golden lacks, on a golden entry that is set or no longer
// declared, and on an entry whose reason names no test. There is no
// -update.
func TestNoTestOnlyKnobs(t *testing.T) {
	u := loadUniverse(t)
	fields := u.knobFields(t, makefileList(t, "KNOB_STRUCTS"))
	set := u.settersOf(fields)

	golden := readGolden(t, "testdata/knobs.golden", func(reason string) bool {
		return testName.MatchString(reason)
	}, "name the test that sets the field")
	for name := range golden {
		if pos, ok := set[name]; ok {
			t.Errorf("%s is listed in testdata/knobs.golden but a program sets it (%s): drop its line", name, pos)
		} else if fields[name] == nil {
			t.Errorf("%s is listed in testdata/knobs.golden but is no longer a field of a KNOB_STRUCTS struct: drop its line", name)
		}
	}
	var missing []string
	for name, field := range fields {
		if _, ok := set[name]; !ok && golden[name] == "" {
			missing = append(missing, fmt.Sprintf("%s (%s)", name, u.fset.Position(field.Pos())))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no program sets %s: move it out of the production struct, or list it in testdata/knobs.golden naming the test that needs it", m)
	}
	t.Logf("%d golden entries of %d fields", len(golden), len(fields))
}

// testName matches the name of a test, benchmark or fuzz function.
var testName = regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z]\w*`)

// knobFields returns the named exported fields of the structs entries list,
// each "<file>:<type>", by qualified name. Embedded fields are composition,
// not settings, and `make knobs` does not count them either.
func (u *universe) knobFields(t *testing.T, entries []string) map[string]*types.Var {
	t.Helper()
	fields := map[string]*types.Var{}
	for _, entry := range entries {
		file, typ, _ := strings.Cut(entry, ":")
		p := u.pkgs[u.module+"/"+filepath.ToSlash(filepath.Dir(file))]
		if p == nil {
			t.Fatalf("KNOB_STRUCTS entry %s: no package in %s", entry, filepath.Dir(file))
		}
		tn, _ := p.Scope().Lookup(typ).(*types.TypeName)
		if tn == nil || filepath.Base(u.fset.Position(tn.Pos()).Filename) != filepath.Base(file) {
			t.Fatalf("KNOB_STRUCTS entry %s: %s declares no type %s", entry, file, typ)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("KNOB_STRUCTS entry %s is not a struct", entry)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				fields[u.qualified(tn)+"."+f.Name()] = f
			}
		}
	}
	return fields
}

// settersOf returns, by qualified name, where non-test code a program
// reaches first sets each of fields in a way that counts (see
// TestNoTestOnlyKnobs).
func (u *universe) settersOf(fields map[string]*types.Var) map[string]token.Position {
	reached, _ := u.reach()
	w := setters{u: u, reached: reached, names: map[*types.Var]string{}, set: map[string]token.Position{}}
	for name, f := range fields {
		w.names[f] = name
	}
	for path, files := range u.files {
		w.path = path
		for _, f := range files {
			ast.Walk(w, f)
		}
	}
	return w.set
}

// setters is the ast.Visitor behind settersOf. Each node's children are
// walked with a copy whose funcs holds the functions enclosing them,
// outermost first. The body of a function no program reaches is skipped: a
// test helper kept in a production file sets nothing a program uses.
type setters struct {
	u       *universe
	reached map[*types.Func]bool
	names   map[*types.Var]string
	set     map[string]token.Position
	path    string // the import path of the file walked
	funcs   []ast.Node
}

func (w setters) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if !w.reached[w.u.info.Defs[n.Name].(*types.Func)] {
			return nil
		}
		w.funcs = append(w.funcs[:len(w.funcs):len(w.funcs)], n)
	case *ast.FuncLit:
		w.funcs = append(w.funcs[:len(w.funcs):len(w.funcs)], n)
	case *ast.KeyValueExpr:
		w.write(n.Key, n.Value)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				value := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				}
				w.write(sel.Sel, value)
			}
		}
	}
	return w
}

// write records key = value when key names one of the fields and the write
// counts.
func (w setters) write(key, value ast.Expr) {
	id, ok := key.(*ast.Ident)
	if !ok {
		return
	}
	v, _ := w.u.info.Uses[id].(*types.Var)
	name, ok := w.names[v]
	if _, seen := w.set[name]; !ok || seen {
		return
	}
	if w.path != v.Pkg().Path() || w.u.fromParam(value, w.funcs) {
		w.set[name] = w.u.fset.Position(id.Pos())
	}
}

// fromParam reports whether e refers to a parameter of one of funcs, the
// functions enclosing it outermost first, or to a local variable computed
// from one.
func (u *universe) fromParam(e ast.Expr, funcs []ast.Node) bool {
	if len(funcs) == 0 {
		return false
	}
	derived := map[types.Object]bool{}
	for _, fn := range funcs {
		var params *ast.FieldList
		switch fn := fn.(type) {
		case *ast.FuncDecl:
			params = fn.Type.Params
		case *ast.FuncLit:
			params = fn.Type.Params
		}
		for _, field := range params.List {
			for _, name := range field.Names {
				derived[u.info.Defs[name]] = true
			}
		}
	}
	mentions := func(exprs ...ast.Expr) bool {
		found := false
		for _, x := range exprs {
			ast.Inspect(x, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && derived[u.info.Uses[id]] {
					found = true
				}
				return !found
			})
		}
		return found
	}
	// Derive every local an assignment or declaration of the outermost
	// function computes from a derived value, until none is added.
	for grew := true; grew; {
		grew = false
		ast.Inspect(funcs[0], func(n ast.Node) bool {
			var lhs []*ast.Ident
			switch n := n.(type) {
			case *ast.AssignStmt:
				if mentions(n.Rhs...) {
					for _, x := range n.Lhs {
						if id, ok := x.(*ast.Ident); ok {
							lhs = append(lhs, id)
						}
					}
				}
			case *ast.ValueSpec:
				if mentions(n.Values...) {
					lhs = n.Names
				}
			}
			for _, id := range lhs {
				obj := u.info.Defs[id]
				if obj == nil {
					obj = u.info.Uses[id]
				}
				if obj != nil && !derived[obj] {
					derived[obj], grew = true, true
				}
			}
			return true
		})
	}
	return mentions(e)
}

// readGolden returns a golden's entries by name, failing each whose reason
// does not pass valid with "the reason must <want>". Blank lines and lines
// starting with # are commentary.
func readGolden(t *testing.T, path string, valid func(reason string) bool, want string) map[string]string {
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
		case !valid(reason):
			t.Errorf("%s:%d: %s: the reason must %s", path, line, name, want)
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

// reach returns the functions some program reaches, keyed by generic
// origin, and every object those functions and the package-level
// declarations refer to (see TestNoUnreachableCode).
func (u *universe) reach() (reached map[*types.Func]bool, used map[types.Object]bool) {
	reached, used = map[*types.Func]bool{}, map[types.Object]bool{}
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
	return reached, used
}

// unreachable returns every internal/ declaration no program reaches, by
// qualified name, with its position.
func (u *universe) unreachable() map[string]token.Position {
	reached, used := u.reach()
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
