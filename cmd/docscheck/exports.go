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
	"slices"
	"sort"
	"strings"
)

// exportAllowlist names the exported identifiers under internal/ that
// may stay without a production caller, keyed "pkg.Name" or
// "pkg.Type.Method", each with the reason it stays. An entry that no
// longer names a declaration, or whose identifier has since gained a
// production caller, is itself a problem, so the list cannot go stale.
var exportAllowlist = map[string]string{
	"comm.Comm.Stats":      "shared test fixture: dist's and skp's tests assert message counts with it",
	"problems.Poisson1D":   "shared test fixture",
	"problems.OnesRHS":     "shared test fixture",
	"la.CSR.Diag":          "shared test fixture: the dist_family golden's diagPrecon",
	"skp.NewDistCheckedOp": "protection row of the planned bit-flip coverage table (ROADMAP)",
	"usagecheck.Verify":    "test-support package: the cmd tests check their documented invocations with it",
}

// dynamicNames are the methods the standard library looks up at run
// time (fmt, errors, encoding/json), which no call in the program names.
var dynamicNames = strings.Fields("Error String Format GoString MarshalJSON UnmarshalJSON MarshalText UnmarshalText")

// checkUnusedExports type-checks the non-test files of the module at
// root and reports every exported top-level function, method (of an
// exported type), type, constant and variable under root/internal that
// no non-test file uses outside its own declaration, unless allow lists
// it; and every stale allow entry. A use is what the type checker
// resolves an identifier to, so sync.Cond's Broadcast uses no other
// Broadcast, and a method's receiver does not use its type. A method is
// also used when the standard library finds it by name (dynamicNames)
// or its type implements an interface of the program that names it.
// What an allowlisted declaration uses is kept (NewDistCheckedOp keeps
// DistCheckedOp), but it cannot make another allowlist entry stale.
func checkUnusedExports(root string, allow map[string]string) ([]string, error) {
	pkgs, err := goList(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exportData := map[string]string{}
	for _, p := range pkgs {
		exportData[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exportData[path]) })
	// Module packages are checked from source, dependencies first, and
	// imported as checked, so an object is one value in every package.
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	var files []*ast.File
	candidates := map[types.Object]string{} // "pkg.Name" or "pkg.Type.Method"
	var modDir string
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main || len(p.GoFiles) == 0 {
			continue
		}
		modDir = p.Module.Dir
		var pfiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pfiles = append(pfiles, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, pfiles, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath], files = pkg, append(files, pfiles...)
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() || !strings.HasPrefix(p.ImportPath, p.Module.Path+"/internal/") {
				continue
			}
			candidates[obj] = pkg.Name() + "." + name
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				for m := range tn.Type().(*types.Named).Methods() {
					if m.Exported() {
						candidates[m] = candidates[obj] + "." + m.Name()
					}
				}
			}
		}
	}

	// Each top-level declaration, or spec of a grouped one, uses what its
	// identifiers resolve to, except what it declares itself.
	prod, kept := map[types.Object]bool{}, map[types.Object]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			units, recv := []ast.Node{d}, ast.Node(nil)
			if g, ok := d.(*ast.GenDecl); ok {
				units = units[:0]
				for _, s := range g.Specs {
					units = append(units, s)
				}
			} else if fd := d.(*ast.FuncDecl); fd.Recv != nil {
				recv = fd.Recv
			}
			for _, u := range units {
				used := prod
				ast.Inspect(u, func(n ast.Node) bool {
					id, _ := n.(*ast.Ident)
					if _, ok := allow[candidates[info.Defs[id]]]; ok {
						used = kept // u declares an allowlisted name, ahead of its uses
					} else if obj := info.Uses[id]; obj != nil {
						if fn, ok := obj.(*types.Func); ok {
							obj = fn.Origin()
						}
						if obj.Pos() < u.Pos() || obj.Pos() >= u.End() {
							used[obj] = true
						}
					}
					return n != recv
				})
			}
		}
	}
	// implemented reports whether m's type implements an interface that
	// names m and that the program writes or holds a value of.
	implemented := func(m *types.Func) bool {
		recv := m.Signature().Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv) // *T implements whatever T does
		}
		for _, tv := range info.Types {
			it, ok := tv.Type.Underlying().(*types.Interface)
			if ok && types.Implements(recv, it) && types.NewMethodSet(it).Lookup(nil, m.Name()) != nil {
				return true
			}
		}
		return false
	}
	position := func(obj types.Object) string {
		p := fset.Position(obj.Pos())
		rel, _ := filepath.Rel(modDir, p.Filename)
		return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
	}
	var problems []string
	declared := map[string]types.Object{}
	for obj, key := range candidates {
		declared[key] = obj
		if _, ok := allow[key]; ok || prod[obj] || kept[obj] {
			continue
		}
		if m, ok := obj.(*types.Func); ok && m.Signature().Recv() != nil && (slices.Contains(dynamicNames, m.Name()) || implemented(m)) {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: exported %s has no production caller", position(obj), key))
	}
	for key := range allow {
		switch obj, ok := declared[key]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("cmd/docscheck: allowlisted %s is not declared", key))
		case prod[obj]:
			problems = append(problems, fmt.Sprintf("%s: allowlisted %s has a production caller", position(obj), key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// listedPackage is what the scan reads of one `go list -json` record.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Module                  *struct {
		Path, Dir string
		Main      bool
	}
}

// goList runs `go list -export -deps -json ./...` in root: every
// package the module needs, dependencies first, each with the file its
// compiled export data is in. A failure is one line: the first of go
// list's that is not a "# pkg" build header.
func goList(root string) ([]listedPackage, error) {
	var stderr strings.Builder
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir, cmd.Stderr = root, &stderr
	out, err := cmd.Output()
	if err != nil {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "# ") {
				return nil, fmt.Errorf("go list: %s", line)
			}
		}
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
