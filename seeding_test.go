package cimsa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoWallClockSeeding keeps every result a pure function of its
// seed: no non-test file of this module may import math/rand (whose
// global source and NewSource invite time-seeded generators), or seed
// internal/rng from anything that mentions the time package. bench/ is
// its own module and is not walked.
func TestNoWallClockSeeding(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "bench" || name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		checkSeeding(t, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("walked no Go files")
	}
}

// checkSeeding reports math/rand imports and rng.New calls whose
// arguments mention the time package.
func checkSeeding(t *testing.T, fset *token.FileSet, f *ast.File) {
	t.Helper()
	rngName, timeName := "", ""
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		switch path {
		case "math/rand", "math/rand/v2":
			t.Errorf("%s imports %s; seed from internal/rng instead", fset.Position(imp.Pos()), path)
		case "cimsa/internal/rng":
			rngName = local
		case "time":
			timeName = local
		}
	}
	if rngName == "" || timeName == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "New" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != rngName {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == timeName {
					t.Errorf("%s seeds rng.New from the time package; a result must be a function of its seed", fset.Position(call.Pos()))
				}
				return true
			})
		}
		return true
	})
}
