package cimsa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyKeepers are the exported functions and methods under
// internal/ that no production file calls but that stay on purpose, each
// with its reason. Keys are "pkg.Func" or "pkg.Type.Method".
var testOnlyKeepers = map[string]string{
	"heuristics.OneTreeLowerBound":       "the certified lower bound that quality ratios will divide by",
	"maxcut.BruteForce":                  "exact maxcut ground truth for the solution-quality gate",
	"ising.Model.GroundStateEnergyBrute": "exact Ising ground truth for the solution-quality gate",
	"rng.Rand.Perm":                      "shared test utility: five packages' tests draw permutations from it",
	"rng.Rand.Shuffle":                   "shared test utility: five packages' tests shuffle with it",
	"fleet.Worker.Kill":                  "the crash fault that internal/faultinject injects into a fleet worker",
}

// stdInterfaceMethods are method names that satisfy standard-library
// interfaces (fmt.Stringer, error, http.Handler, json.Marshaler, ...):
// the standard library calls them, so no identifier in this module has
// to.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyExports fails when an exported function or method under
// internal/ is used by no non-test file outside bench/ (a separate
// module) and internal/faultinject (a test harness). A package-level
// function counts as used when some file names it through its package
// (anneal.TSP) or from inside it (TSP); a method counts as used when
// any identifier carries its name. The check works on syntax alone and
// errs toward "used": a dead method that shares its name with a live
// identifier slips through. Only uses inside a function of the same
// name are not counted, so that recursion keeps nothing alive.
func TestNoTestOnlyExports(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	fset := token.NewFileSet()
	// used holds every identifier name, which keeps methods alive, and
	// "import/path.Name" for every package-level name a file refers to,
	// which keeps functions alive.
	used := map[string]bool{}
	type decl struct{ key, id, pos string }
	var decls []decl
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata" || name == "faultinject") {
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
		pkgPath := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkgPath += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		// record notes every use inside n except the identifier self, a
		// function's own name, which its recursion does not keep alive.
		record := func(n ast.Node, self string) {
			sel := map[*ast.Ident]bool{}
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					sel[x.Sel] = true
					if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
						used[imports[pkg.Name]+"."+x.Sel.Name] = true
					}
				case *ast.Ident:
					if x.Name == self {
						break
					}
					used[x.Name] = true
					if !sel[x] {
						used[pkgPath+"."+x.Name] = true
					}
				}
				return true
			})
		}
		internal := strings.HasPrefix(pkgPath, module+"/internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				record(dd, "")
				continue
			}
			name := fd.Name.Name
			record(fd, name)
			if !internal || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				decls = append(decls, decl{f.Name.Name + "." + name, pkgPath + "." + name, fset.Position(fd.Pos()).String()})
			} else if !stdInterfaceMethods[name] {
				decls = append(decls, decl{f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + name, name, fset.Position(fd.Pos()).String()})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !used[d.id] && testOnlyKeepers[d.key] == "" {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported declarations under internal/ have no caller outside tests; "+
			"delete them, move them into the tests that use them, or justify them in testOnlyKeepers:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// recvType names a method receiver's base type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
