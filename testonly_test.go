package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed maps each declaration under internal/ that stays in
// production code although only tests reach it to the reason it stays.
// The entries count as roots, so what they use stays too.
var testOnlyAllowed = map[string]string{
	"repro/internal/rrset.Pool.RebuildUniverse": "core's kpt_test.go compares carried KPT sets against a rebuild, which needs rrset internals",
	"repro/internal/graph.ReadEdgeList":         "dataset's parser tests compare against this reader of graph.WriteEdgeList's format",
	"repro/internal/faults.Set":                 "failpoint hook that tests arm",
	"repro/internal/faults.Clear":               "failpoint hook that tests disarm",
	"repro/internal/faults.Reset":               "failpoint hook that tests defer",
}

// TestNoTestOnlyCode fails for each non-test declaration under internal/
// that no non-test code reaches. Reachability is computed to a fixpoint
// from the main packages (cmd/, examples/, perfbench/), the exported API
// of this package with every exported method of the types it declares
// or aliases, init functions and blank package-level declarations. A method whose
// receiver is reached and that implements an interface declared in the
// module, or exported by a package it imports, counts as reached, since
// calls through the interface do not name it. Code that only tests use
// belongs in the _test.go files of its package.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := &loader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*loadedPackage{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if err := l.findPackages("."); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}
	dead, declared := l.unreached(testOnlyAllowed)
	for _, d := range dead {
		t.Errorf("%s: no non-test code reaches %s: delete it, or move it into a _test.go file if a test uses it",
			l.fset.Position(d.pos), d.name)
	}
	for name := range testOnlyAllowed {
		if !declared[name] {
			t.Errorf("testOnlyAllowed names %s, which is not declared: drop the entry", name)
		}
	}
}

type loadedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// loader type-checks the module's packages itself, so that objects used
// across packages are identical, and leaves the standard library to the
// source importer.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string // import path -> directory
	pkgs map[string]*loadedPackage
}

func (l *loader) findPackages(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		importPath := "repro"
		if path != root {
			importPath += "/" + filepath.ToSlash(path)
		}
		l.dirs[importPath] = bp.Dir
		return nil
	})
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) load(path string) (*loadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	bp, err := build.Default.ImportDir(l.dirs[path], 0)
	if err != nil {
		return nil, err
	}
	lp := &loadedPackage{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	if lp.pkg, err = conf.Check(path, l.fset, lp.files, lp.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = lp
	return lp, nil
}

// decl is one package-level declaration or method of the module.
type decl struct {
	name string // import path, receiver type and name, dot-separated
	pos  token.Pos
	node ast.Node // the syntax whose references the declaration needs
	info *types.Info
}

// unreached returns the declarations under internal/ that no root
// reaches, sorted by name, with the set of every declaration's name.
// The declarations named in allowed are roots.
func (l *loader) unreached(allowed map[string]string) (dead []*decl, declared map[string]bool) {
	decls := map[types.Object]*decl{}
	var roots []types.Object
	for path, lp := range l.pkgs {
		isMain := lp.pkg.Name() == "main"
		for _, f := range lp.files {
			for _, gd := range f.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					obj := lp.info.Defs[gd.Name]
					name := path + "." + gd.Name.Name
					if gd.Recv != nil {
						name = path + "." + recvName(obj) + "." + gd.Name.Name
					} else if gd.Name.Name == "init" || (isMain && gd.Name.Name == "main") ||
						(path == "repro" && gd.Name.IsExported()) {
						roots = append(roots, obj)
					}
					if obj != nil {
						decls[obj] = &decl{name: name, pos: gd.Pos(), node: gd, info: lp.info}
					}
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							obj := lp.info.Defs[id]
							if id.Name == "_" || obj == nil {
								// Blank declarations run for their side
								// effects: their references are roots.
								ast.Inspect(spec, func(n ast.Node) bool {
									if id, ok := n.(*ast.Ident); ok && lp.info.Uses[id] != nil {
										roots = append(roots, lp.info.Uses[id])
									}
									return true
								})
								continue
							}
							decls[obj] = &decl{name: path + "." + id.Name, pos: id.Pos(), node: spec, info: lp.info}
							if path == "repro" && id.IsExported() {
								roots = append(roots, obj)
							}
						}
					}
				}
			}
		}
	}

	declared = map[string]bool{}
	for obj, d := range decls {
		declared[d.name] = true
		if _, ok := allowed[d.name]; ok {
			roots = append(roots, obj)
		}
	}

	ifaces := l.interfaces()
	reached := map[types.Object]bool{}
	var visit func(obj types.Object)
	visit = func(obj types.Object) {
		obj = origin(obj)
		d, ok := decls[obj]
		if !ok || reached[obj] {
			return
		}
		reached[obj] = true
		if tn, ok := obj.(*types.TypeName); ok {
			// A facade type, or a type the facade aliases, exports its
			// methods to library users.
			facade := tn.Pkg().Path() == "repro"
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for i := range named.NumMethods() {
					if m := named.Method(i); (facade && m.Exported()) || implementsAny(named, m, ifaces) {
						visit(m)
					}
				}
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := d.info.Uses[id]; used != nil {
					visit(used)
				}
			}
			return true
		})
	}
	for _, obj := range roots {
		visit(obj)
	}

	for obj, d := range decls {
		if !reached[obj] && strings.HasPrefix(d.name, "repro/internal/") {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, declared
}

// interfaces returns every named interface declared in the module or
// exported by a package the module imports, plus error and the
// anonymous interfaces the errors package checks for.
func (l *loader) interfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	anon := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	errTuple := types.NewTuple(types.NewVar(token.NoPos, nil, "", errType))
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		anon("Unwrap", nil, errTuple),
		anon("Is", errTuple, types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.Bool]))),
	}
	seen := map[*types.Package]bool{}
	add := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, iface)
			}
		}
	}
	for _, lp := range l.pkgs {
		add(lp.pkg)
		for _, imp := range lp.pkg.Imports() {
			add(imp)
		}
	}
	return out
}

// implementsAny reports whether t, or a pointer to it, implements an
// interface in ifaces that has method m.
func implementsAny(t *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(t)
	for _, iface := range ifaces {
		if iface.Empty() {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(t, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return "?"
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
