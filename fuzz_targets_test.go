package streamhist_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFuzzTargetsListed keeps the Makefile's FUZZ_TARGETS, the list `make
// fuzz` runs in CI's smoke and nightly jobs, in step with the fuzzers the
// module declares. A fuzzer left off the list is never run by either job; an
// entry naming a target or package that does not exist fails only when the
// job reaches it. The test fails on both, and on an entry listed twice.
func TestFuzzTargetsListed(t *testing.T) {
	listed := map[string]bool{}
	for _, entry := range makefileList(t, "FUZZ_TARGETS") {
		name, pkg, ok := strings.Cut(entry, ":")
		key := filepath.Clean(pkg) + ":" + name
		switch {
		case !ok || !strings.HasPrefix(pkg, "./"):
			t.Errorf("FUZZ_TARGETS entry %q is not <Fuzzer>:./<package>/", entry)
		case listed[key]:
			t.Errorf("FUZZ_TARGETS lists %s twice", entry)
		}
		listed[key] = true
	}

	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// testdata and hidden trees hold no packages; a nested module
			// (benchmark/) is not built by the root's go test.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared[filepath.Dir(path)+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for key := range declared {
		if !listed[key] {
			t.Errorf("%s is not in the Makefile's FUZZ_TARGETS: make fuzz never runs it", key)
		}
	}
	for key := range listed {
		if !declared[key] {
			t.Errorf("FUZZ_TARGETS lists %s, which no _test.go declares", key)
		}
	}
	t.Logf("%d fuzz targets", len(declared))
}

// makefileList returns the entries of the Makefile's assignment to name,
// backslash-continued lines joined.
func makefileList(t *testing.T, name string) []string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(mk), "\n"+name+" =")
	if !ok {
		t.Fatalf("the Makefile assigns no %s", name)
	}
	var value strings.Builder
	for _, line := range strings.Split(rest, "\n") {
		more := strings.HasSuffix(line, "\\")
		value.WriteString(strings.TrimSuffix(line, "\\") + " ")
		if !more {
			break
		}
	}
	entries := strings.Fields(value.String())
	if len(entries) == 0 {
		t.Fatalf("%s is empty", name)
	}
	return entries
}
