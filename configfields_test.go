//go:build !race

// The race build skips this file: the checks type-check the whole module
// from source and find nothing a data race could change.

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
	"sync"
	"testing"
)

// configFieldExempt lists the config fields that only tests set and that
// stay anyway, each with its reason.
var configFieldExempt = map[string]string{
	"netsim.LinkParams.DupProb":     "the hostile-network model: the reno-reorder golden and tcp's robustness tests substitute it for the clean link every harness runs",
	"netsim.LinkParams.ReorderProb": "the hostile-network model: the reno-reorder golden and tcp's robustness tests substitute it for the clean link every harness runs",
}

// funcExempt lists the functions and methods under internal/ that no
// non-test file references and that stay anyway, each with its reason. A
// row that names an interface method also covers the methods that
// implement it.
var funcExempt = map[string]string{
	"core.Trace.traceNode": "the seal: only the scheduler's node types can be a Trace, so its type switches are exhaustive",
	"core.PollSpine.spine": "Poll's seal, reached through core.Poller, which a primitive's record satisfies by embedding " +
		"PollSpine: the gate matches an interface against a method's own type, not the types that embed it",
	"bench.Fig17HybridFCFS": "the elevator ablation: Figure 17 on an arrival-order disk, isolating the mechanism behind the figure " +
		"(BenchmarkAblationElevator, TestFig17ElevatorAblation)",
	"stm.Tx.Retry":             "stm's blocking half, the paper's retry built into the scheduler; the examples use only its non-blocking half",
	"stm.AtomicallyOr":         "stm's blocking half: GHC's orElse over Retry",
	"stm.AtomicallyOrBlocking": "stm's blocking half: orElse for a goroutine outside the runtime",
	"stm.WriteNow":             "stm's blocking half: the write from outside a transaction that wakes a parked Retry",
	"hio.IO.AIOWrite":          "the kernel's write side, the other half of the disk model; every workload only reads files",
	"tcp.Listener.Close": "a passive socket's teardown: TestStreamIntegrityProperty closes it to free an accept a failed " +
		"lossy connect left parked; no server tears a listener down",
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
	m := loadModule(t)
	var bad []string
	for key, name := range m.fields {
		if m.setBy[key] {
			continue
		}
		if _, ok := configFieldExempt[name]; ok {
			continue
		}
		how := "nothing sets it"
		if m.setInTest[key] {
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
		for _, n := range m.fields {
			found = found || n == name
		}
		if !found {
			t.Errorf("exemption %s names no config field", name)
		}
	}
}

// TestFunctionsReferencedOutsideTests enforces DESIGN.md "Reachability"
// statically: a non-test function or method under internal/ exists only
// if a non-test file of the module references it, cmd/, examples/ and
// benchmark/ included. A call from the function's own body does not
// count. A method also counts when non-test code selects its name through
// an interface its type satisfies, and an Error or String method counts
// because fmt calls it. An interface method counts only when non-test code
// selects it. The library is the exception: a hybrid.go export, or an
// exported method of a type hybrid.go aliases, needs some caller, and a
// test or an example will do.
func TestFunctionsReferencedOutsideTests(t *testing.T) {
	m := loadModule(t)
	// An exempt interface method keeps its implementations as a selection
	// would.
	ifaces := m.ifaces
	for _, d := range m.funcs {
		if _, ok := funcExempt[d.name]; ok && d.iface != nil {
			ifaces = append(ifaces, ifaceUse{d.method, d.iface})
		}
	}
	selected := func(d *funcDecl) bool {
		if d.methods == nil {
			return false
		}
	next:
		for _, u := range ifaces {
			if u.method != d.method {
				continue
			}
			for _, n := range u.names {
				if !d.methods[n] {
					continue next
				}
			}
			return true
		}
		return false
	}

	needed := map[string]bool{}
	var bad []string
	for key, d := range m.funcs {
		if m.refBy[key] || d.printed || selected(d) ||
			m.refInTest[key] && (d.library || d.exported && m.aliased[d.recv]) {
			continue
		}
		if _, ok := funcExempt[d.name]; ok {
			needed[d.name] = true
			continue
		}
		how := "nothing references it"
		switch {
		case d.iface != nil && m.refInTest[key]:
			how = "an interface method only tests select"
		case d.iface != nil:
			how = "an interface method nothing selects"
		case m.refInTest[key]:
			how = "only tests reference it"
		}
		bad = append(bad, d.name+" ("+how+")")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("function %s: delete it or exempt it with a reason", b)
	}
	for name := range funcExempt {
		found := false
		for _, d := range m.funcs {
			found = found || d.name == name
		}
		switch {
		case !found:
			t.Errorf("exemption %s names no function", name)
		case !needed[name]:
			t.Errorf("exemption %s is stale: the gate keeps it without a row", name)
		}
	}
}

// module is what one type-check pass over the module records for both
// gates. Fields and functions are keyed by declaration position: the
// importer's copy of a package and this test's own check of it declare
// the same object at the same place, but as different objects.
type module struct {
	fields    map[string]string // position -> pkg.Type.Field
	setBy     map[string]bool   // position -> set in a non-test file
	setInTest map[string]bool

	funcs     map[string]*funcDecl // position -> declared under internal/ or in hybrid.go
	refBy     map[string]bool      // position -> referenced from a non-test file
	refInTest map[string]bool
	ifaces    []ifaceUse      // methods non-test code selects through an interface
	aliased   map[string]bool // positions of the types hybrid.go aliases

	err error
}

// funcDecl is a function, method or interface method the function gate
// covers.
type funcDecl struct {
	name     string // pkg.Func, pkg.Type.Method or pkg.Interface.Method
	method   string
	exported bool
	library  bool            // declared in the root package, hybrid.go
	recv     string          // a method's receiver type position
	methods  map[string]bool // a concrete method's receiver method set, by name
	iface    []string        // an interface method's interface method set
	printed  bool            // Error() string or String() string
}

// ifaceUse is a method selected through an interface with the given
// method set.
type ifaceUse struct {
	method string
	names  []string
}

var (
	loadOnce sync.Once
	loaded   *module
)

// loadModule type-checks the module once, offline, with the source
// importer, and returns what both gates read.
func loadModule(t *testing.T) *module {
	loadOnce.Do(func() {
		loaded = &module{
			fields: map[string]string{}, setBy: map[string]bool{}, setInTest: map[string]bool{},
			funcs: map[string]*funcDecl{}, refBy: map[string]bool{}, refInTest: map[string]bool{},
			aliased: map[string]bool{},
		}
		loaded.err = loaded.load()
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded
}

func (m *module) load() error {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	pos := func(p token.Pos) string { return fset.Position(p).String() }
	ifaceSeen := map[string]bool{}

	recordSet := func(v *types.Var, test bool) {
		if v == nil || !v.IsField() {
			return
		}
		if test {
			m.setInTest[pos(v.Pos())] = true
		} else {
			m.setBy[pos(v.Pos())] = true
		}
	}
	recordRef := func(fn *types.Func, test bool) {
		if test {
			m.refInTest[pos(fn.Pos())] = true
			return
		}
		m.refBy[pos(fn.Pos())] = true
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		if it, ok := recv.Type().Underlying().(*types.Interface); ok {
			u := ifaceUse{fn.Name(), methodNames(it)}
			if k := u.method + " " + strings.Join(u.names, " "); !ifaceSeen[k] {
				ifaceSeen[k] = true
				m.ifaces = append(m.ifaces, u)
			}
		}
	}

	root, err := filepath.Abs(".")
	if err != nil {
		return err
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		path := "hybrid"
		if rel != "." {
			path += "/" + rel
		}
		library := rel == "."
		covered := library || strings.HasPrefix(rel, "internal/")
		check := func(path string, names []string, self *types.Package) (*types.Package, error) {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
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
				test := strings.HasSuffix(names[i], "_test.go")
				collectSets(f, info, test, recordSet)
				collectRefs(f, info, test, recordRef)
				if covered && !test {
					m.collectFuncs(f, info, pkg.Name(), library, pos)
				}
			}
			if self == nil {
				collectConfigFields(pkg, fset, m.fields)
			}
			return pkg, nil
		}
		pkg, err := check(path, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), nil)
		if err != nil {
			return err
		}
		if len(bp.XTestGoFiles) > 0 {
			if _, err := check(path+"_test", bp.XTestGoFiles, pkg); err != nil {
				return err
			}
		}
	}
	return nil
}

// moduleDirs lists every directory of the module that may hold Go files.
// The paths are absolute, as the source importer's are.
func moduleDirs(root string) ([]string, error) {
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
	return dirs, err
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

// collectRefs calls record for every function or method f refers to,
// leaving out a function's references to itself.
func collectRefs(f *ast.File, info *types.Info, test bool, record func(*types.Func, bool)) {
	for _, decl := range f.Decls {
		var self types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
					record(fn.Origin(), test)
				}
			}
			return true
		})
	}
}

// collectFuncs records the functions, methods and interface methods f
// declares, and, for the library's hybrid.go, the types it aliases.
func (m *module) collectFuncs(f *ast.File, info *types.Info, pkg string, library bool, pos func(token.Pos) string) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			fn, ok := info.Defs[decl.Name].(*types.Func)
			if !ok || fn.Name() == "init" || fn.Name() == "_" {
				continue
			}
			d := &funcDecl{name: pkg + "." + fn.Name(), method: fn.Name(), exported: fn.Exported(), library: library}
			sig := fn.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil {
				t := types.Unalias(recv.Type())
				if p, ok := t.(*types.Pointer); ok {
					t = types.Unalias(p.Elem())
				}
				named := t.(*types.Named)
				d.name = pkg + "." + named.Obj().Name() + "." + fn.Name()
				d.recv = pos(named.Obj().Pos())
				d.methods = map[string]bool{}
				ms := types.NewMethodSet(types.NewPointer(named))
				for i := 0; i < ms.Len(); i++ {
					d.methods[ms.At(i).Obj().Name()] = true
				}
				d.printed = (fn.Name() == "Error" || fn.Name() == "String") &&
					sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
					types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
			}
			m.funcs[pos(fn.Pos())] = d
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if library && ts.Assign != 0 {
					if tn, ok := info.Uses[aliasTarget(ts.Type)].(*types.TypeName); ok {
						m.aliased[pos(tn.Pos())] = true
					}
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				names := methodNames(info.Defs[ts.Name].Type().Underlying().(*types.Interface))
				for _, field := range it.Methods.List {
					for _, id := range field.Names {
						m.funcs[pos(id.Pos())] = &funcDecl{
							name: pkg + "." + ts.Name.Name + "." + id.Name, method: id.Name,
							exported: id.IsExported(), iface: names,
						}
					}
				}
			}
		}
	}
}

// aliasTarget returns the identifier naming an alias's target type.
func aliasTarget(e ast.Expr) *ast.Ident {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel
	}
	id, _ := e.(*ast.Ident)
	return id
}

// methodNames returns the sorted names of an interface's methods.
func methodNames(it *types.Interface) []string {
	names := make([]string, it.NumMethods())
	for i := range names {
		names[i] = it.Method(i).Name()
	}
	sort.Strings(names)
	return names
}

type importerFunc func(path, srcDir string, mode types.ImportMode) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, ".", 0) }
func (f importerFunc) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	return f(path, srcDir, mode)
}
