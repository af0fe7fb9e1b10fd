// Command deadcheck fails the build on declarations only tests use. It
// type-checks the non-test code of the modules in the given directories
// and reports each package-level func, method, type, var or const that
// no non-test code references outside its own declaration: exported
// ones under an internal/ directory, unexported ones anywhere. Every
// directory's code calls into every other's (perfbench/ drives the root
// module's internal packages), and a method also counts as used when its
// receiver implements an interface with that method that the code
// mentions or imports (error, fmt.Stringer, ...).
//
// Usage: deadcheck dir... (default .). Exit status 0 when nothing is
// dead, 1 with one `file:line name` line per finding otherwise.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// allowlist exempts whole packages or single declarations, keyed by
// path relative to their module root, each with the reason it stays.
var allowlist = map[string]string{
	"internal/cachesim":           "test-only oracle for the analytical cache model",
	"internal/trace":              "test-only oracle for the access-pattern model",
	"internal/fabric/faulttest":   "fault-injection fleet for the fabric and serve tests",
	"internal/placement.Policies": "tests in other packages iterate every policy",
	"internal/prec.Both":          "tests in other packages iterate both precisions",
	"internal/memo.Map.Len":       "tests in other packages assert memo sizes",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	findings, err := check(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Printf("deadcheck: %d declaration(s) nothing outside tests uses\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("deadcheck: ok")
}

// listedPackage is the part of `go list -json` output deadcheck reads.
type listedPackage struct {
	ImportPath, Dir string
	Standard        bool
	GoFiles         []string
	ImportMap       map[string]string
	Module          *struct{ Path string }
}

// decl is one package-level declaration under judgement.
type decl struct {
	obj      types.Object
	pos, end token.Pos // the declaration's extent; uses inside it do not count
	recv     *types.Named
	name     string
	used     bool
}

// check type-checks every package the modules at dirs build, standard
// library included (its bodies skipped), and returns the sorted
// findings, with file paths relative to the working directory.
func check(dirs []string) ([]string, error) {
	// go list -deps prints dependencies before their importers, so
	// checking the lists in order, skipping what is already checked,
	// finds every import checked.
	var pkgs []*listedPackage
	for _, dir := range dirs {
		var err error
		if pkgs, err = goList(dir, pkgs); err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	var decls []*decl
	var infos []*types.Info
	ifaces := map[*types.Interface]bool{}
	for _, p := range pkgs {
		if checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{
			Importer: importer(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				return checked[path], nil // nil: go/types reports the import
			}),
			IgnoreFuncBodies: p.Standard,
		}
		var info *types.Info
		if !p.Standard {
			info = &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			infos = append(infos, info)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		if p.Standard {
			continue
		}
		// Every interface the package can name counts: its own and
		// those of the packages it imports.
		for _, scope := range append([]*types.Package{pkg}, pkg.Imports()...) {
			for _, name := range scope.Scope().Names() {
				if tn, ok := scope.Scope().Lookup(name).(*types.TypeName); ok {
					addInterface(ifaces, tn.Type())
				}
			}
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/")
		if _, ok := allowlist[rel]; !ok {
			internal := slices.Contains(strings.Split(rel, "/"), "internal")
			for _, f := range files {
				decls = append(decls, declsOf(info, f, rel, pkg.Name(), internal)...)
			}
		}
	}

	byObj := map[types.Object]*decl{}
	for _, d := range decls {
		byObj[d.obj] = d
	}
	for _, info := range infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			if d := byObj[obj]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
				d.used = true
			}
		}
		for _, tv := range info.Types {
			addInterface(ifaces, tv.Type)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, d := range decls {
		if d.used || (d.recv != nil && satisfies(d, ifaces)) {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		file, _ := filepath.Rel(wd, pos.Filename)
		findings = append(findings, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), pos.Line, d.name))
	}
	sort.Strings(findings)
	return findings, nil
}

// declsOf returns the file's package-level declarations deadcheck
// judges: unexported ones, and exported ones too in internal packages.
func declsOf(info *types.Info, f *ast.File, rel, pkgName string, internal bool) []*decl {
	var out []*decl
	add := func(id *ast.Ident, node ast.Node, recv *types.Named) {
		name := id.Name
		if recv != nil {
			name = recv.Obj().Name() + "." + name
		}
		_, allowed := allowlist[strings.TrimPrefix(rel+"."+name, ".")]
		if id.Name != "_" && (!id.IsExported() || internal) && !allowed {
			out = append(out, &decl{obj: info.Defs[id], pos: node.Pos(), end: node.End(), recv: recv, name: pkgName + "." + name})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if sig := info.Defs[d.Name].Type().(*types.Signature); sig.Recv() != nil {
				t := sig.Recv().Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				// A generic receiver stays instantiated with its own type
				// parameters, so Implements can judge it.
				add(d.Name, d, t.(*types.Named))
			} else if d.Name.Name != "init" && d.Name.Name != "main" {
				add(d.Name, d, nil)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s, nil)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s, nil)
					}
				}
			}
		}
	}
	return out
}

// satisfies reports whether d's receiver type, or a pointer to it,
// implements an interface in ifaces that has a method named like d.
func satisfies(d *decl, ifaces map[*types.Interface]bool) bool {
	for iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == d.obj.Name() &&
				(types.Implements(d.recv, iface) || types.Implements(types.NewPointer(d.recv), iface)) {
				return true
			}
		}
	}
	return false
}

// addInterface records t if it is a non-generic interface with methods.
func addInterface(ifaces map[*types.Interface]bool, t types.Type) {
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > named.TypeArgs().Len() {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		ifaces[iface] = true
	}
}

type importer func(path string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// goList appends the packages `go list -deps -json ./...` lists in dir.
// Cgo is off, so the standard library's pure-Go files are the ones
// listed and checked.
func goList(dir string, pkgs []*listedPackage) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOWORK=off")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
