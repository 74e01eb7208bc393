//go:build !race

// The race build skips this file: the check type-checks the whole module
// from source and finds nothing a data race could change.

package hybrid_test

import (
	"go/ast"
	"go/build"
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

// configFieldExempt lists the config fields that only tests set and that
// stay anyway, each with its reason.
var configFieldExempt = map[string]string{
	"netsim.LinkParams.DupProb":     "the hostile-network model: the reno-reorder golden and tcp's robustness tests substitute it for the clean link every harness runs",
	"netsim.LinkParams.ReorderProb": "the hostile-network model: the reno-reorder golden and tcp's robustness tests substitute it for the clean link every harness runs",
}

// isConfigType reports whether a struct type's name marks it as a bag of
// knobs the reachability rule covers.
func isConfigType(name string) bool {
	return strings.HasSuffix(name, "Config") || name == "Options" ||
		strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Policy") ||
		strings.HasSuffix(name, "Params")
}

// TestConfigFieldsSetOutsideTests enforces DESIGN.md "Reachability" one
// level up from functions: an exported field of an exported config struct
// exists only if a non-test file sets it. Setting is a composite-literal
// key, an assignment, &x.F, or ++/--; an assignment inside withDefaults
// fills a default and does not count.
func TestConfigFieldsSetOutsideTests(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	// Fields are keyed by declaration position: the importer's copy of a
	// package and this test's own check of it declare the same field at
	// the same place, but as different objects.
	fields := map[string]string{} // position -> pkg.Type.Field
	setBy := map[string]bool{}    // position -> set in a non-test file
	setInTest := map[string]bool{}

	record := func(v *types.Var, test bool) {
		if v == nil || !v.IsField() {
			return
		}
		key := fset.Position(v.Pos()).String()
		if test {
			setInTest[key] = true
		} else {
			setBy[key] = true
		}
	}

	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range moduleDirs(t, root) {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			t.Fatalf("%s: %v", dir, err)
		}
		path := "hybrid"
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		check := func(path string, names []string, self *types.Package) *types.Package {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Defs:       map[*ast.Ident]types.Object{},
			}
			conf := types.Config{
				Importer: importerFunc(func(p, srcDir string, mode types.ImportMode) (*types.Package, error) {
					if self != nil && p == self.Path() {
						return self, nil
					}
					return imp.ImportFrom(p, dir, mode)
				}),
				// A package's in-package tests can import a package that
				// imports it back; the two copies' types then disagree.
				// Positions still resolve, so such errors are ignored.
				Error: func(error) {},
			}
			pkg, _ := conf.Check(path, fset, files, info)
			for i, f := range files {
				collectSets(f, info, strings.HasSuffix(names[i], "_test.go"), record)
			}
			if self == nil {
				collectConfigFields(pkg, fset, fields)
			}
			return pkg
		}
		pkg := check(path, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), nil)
		if len(bp.XTestGoFiles) > 0 {
			check(path+"_test", bp.XTestGoFiles, pkg)
		}
	}

	var bad []string
	for key, name := range fields {
		if setBy[key] {
			continue
		}
		if _, ok := configFieldExempt[name]; ok {
			continue
		}
		how := "nothing sets it"
		if setInTest[key] {
			how = "only tests set it"
		}
		bad = append(bad, name+" ("+how+")")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("config field %s: make it a constant or delete it", b)
	}
	for name := range configFieldExempt {
		found := false
		for _, n := range fields {
			found = found || n == name
		}
		if !found {
			t.Errorf("exemption %s names no config field", name)
		}
	}
}

// moduleDirs lists every directory of the module that may hold Go files.
// The paths are absolute, as the source importer's are.
func moduleDirs(t *testing.T, root string) []string {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if p != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		if p != root {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// collectConfigFields records the exported fields of pkg's exported
// config structs.
func collectConfigFields(pkg *types.Package, fset *token.FileSet, fields map[string]string) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !isConfigType(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[fset.Position(f.Pos()).String()] = pkg.Name() + "." + name + "." + f.Name()
			}
		}
	}
}

// collectSets calls record for every field f sets.
func collectSets(f *ast.File, info *types.Info, test bool, record func(*types.Var, bool)) {
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		return nil
	}
	for _, decl := range f.Decls {
		inDefaults := false
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "withDefaults" {
			inDefaults = true
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							v, _ := info.Uses[id].(*types.Var)
							record(v, test)
						}
					} else if i < st.NumFields() {
						record(st.Field(i), test)
					}
				}
			case *ast.AssignStmt:
				if !inDefaults {
					for _, lhs := range n.Lhs {
						record(field(lhs), test)
					}
				}
			case *ast.IncDecStmt:
				record(field(n.X), test)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					record(field(n.X), test)
				}
			}
			return true
		})
	}
}

type importerFunc func(path, srcDir string, mode types.ImportMode) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, ".", 0) }
func (f importerFunc) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	return f(path, srcDir, mode)
}
