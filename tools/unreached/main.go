// Command unreached fails when an exported identifier of the main
// module has no use outside _test.go files: a package-level name that
// nothing refers to, or an exported method that nothing calls and that
// satisfies no interface the code names. It type-checks the non-test
// packages of every module directory given, from source and in
// dependency order, with the standard library read from `go list
// -export` data; uses in any of them count, cmd/ and examples/
// included. The first directory is the main module. Run it from the
// repository root as `go run ./tools/unreached . cellbench`.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

var (
	// dynamic methods are called through interfaces that the standard
	// library asserts at run time (fmt's Stringer, errors' Unwrap),
	// which no code in the module names.
	dynamic = map[string]bool{"String": true, "Unwrap": true}
	// justified names are used by tests alone on purpose, with the
	// reason; their methods are exempt too.
	justified = map[string]string{
		"swarmfuzz/internal/telemetry.FakeClock": "the deterministic clock the telemetry, serve and experiments tests share",
	}
)

func main() {
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	var own []*types.Package
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for k, dir := range os.Args[1:] {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		check(err)
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p struct {
				Dir, ImportPath, Name, Export string
				GoFiles                       []string
				Standard, DepOnly             bool
			}
			check(dec.Decode(&p))
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			receivers := map[*ast.Ident]bool{} // a receiver names its type but does not use it
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				check(err)
				files = append(files, f)
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
						ast.Inspect(fd.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				}
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := conf.Check(p.ImportPath, fset, files, info)
			check(err)
			checked[p.ImportPath] = pkg
			if k == 0 && p.Name != "main" && !p.DepOnly {
				own = append(own, pkg)
			}
			for id, obj := range info.Uses {
				if f, ok := obj.(*types.Func); ok {
					obj = f.Origin() // a generic method's instance
				}
				used[obj] = used[obj] || !receivers[id]
				if _, ok := obj.(*types.TypeName); ok {
					if it, ok := obj.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	var dead []string
	for _, pkg := range own {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if justified[pkg.Path()+"."+name] != "" {
				continue
			}
			if obj.Exported() && !used[obj] {
				dead = append(dead, pkg.Path()+"."+name)
			}
			if named, ok := obj.Type().(*types.Named); ok && obj == named.Obj() {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !used[m] && !dynamic[m.Name()] && !satisfies(named, m.Name(), ifaces) {
						dead = append(dead, m.FullName())
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		check(fmt.Errorf("%d exported identifiers have no use outside tests: delete or unexport them", len(dead)))
	}
}

// satisfies reports whether t or *t implements one of ifaces that has
// a method called name.
func satisfies(t *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
