package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// exportAllowlist names the exported identifiers under internal/ that
// may stay without a production caller, keyed "pkg.Name" or
// "pkg.Type.Method", each with the reason it stays. An entry that no
// longer names a declaration, or whose identifier has since gained a
// production caller, is itself a problem, so the list cannot go stale.
var exportAllowlist = map[string]string{
	"comm.Comm.Barrier":       "simulated MPI surface",
	"comm.Comm.Reduce":        "simulated MPI surface",
	"comm.Comm.IBarrier":      "simulated MPI surface",
	"comm.Request.Test":       "simulated MPI surface",
	"comm.Comm.Sendrecv":      "simulated MPI surface",
	"problems.NewHeatGrid":    "serial reference that lflr's bitwise tests compare against",
	"problems.NewAdvection1D": "serial reference that lflr's bitwise tests compare against",
	"problems.Poisson1D":      "shared test fixture",
	"problems.OnesRHS":        "shared test fixture",
	"la.CSR.Diag":             "shared test fixture: the dist_family golden's diagPrecon",
	"skp.NewDistCheckedOp":    "protection row of the planned bit-flip coverage table (ROADMAP)",
}

// topDecl is one top-level declaration: the keys of the names it
// declares and the parts of it that may mention other names.
type topDecl struct {
	keys    []string // "pkg.Name" or "pkg.Type.Method"
	names   []string
	pos     string
	parts   []ast.Node
	foreign map[string]bool // the file's names for packages outside internal/
}

// checkUnusedExports reports every exported top-level function, method
// (of an exported type), type, constant and variable declared in a
// non-test file under root/internal that no non-test file under root
// mentions outside its own declaration, unless allow lists it; and
// every allow entry that is stale. The scan is by name, so a mention of
// Apply anywhere keeps every method named Apply — except a name
// qualified by a package that is no internal/ package (bytes.Contains
// keeps no method named Contains). A method's receiver does not
// mention its type. What an allowlisted declaration mentions is
// kept (NewHeatGrid keeps HeatGrid), but such a mention is no production
// caller: it cannot make another allowlist entry stale.
func checkUnusedExports(root string, allow map[string]string) ([]string, error) {
	var decls []topDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
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
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		pkg := filepath.Base(filepath.Dir(rel))
		foreign := foreignImports(f)
		for _, dc := range f.Decls {
			switch d := dc.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if recv := recvName(d); recv != "" {
					key = pkg + "." + recv + "." + d.Name.Name
				}
				td := topDecl{keys: []string{key}, names: []string{d.Name.Name},
					pos: position(fset, rel, d.Name), parts: []ast.Node{d.Type}, foreign: foreign}
				if d.Body != nil {
					td.parts = append(td.parts, d.Body)
				}
				decls = append(decls, td)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						td := topDecl{keys: []string{pkg + "." + s.Name.Name}, names: []string{s.Name.Name},
							pos: position(fset, rel, s.Name), parts: []ast.Node{s.Type}, foreign: foreign}
						if s.TypeParams != nil {
							td.parts = append(td.parts, s.TypeParams)
						}
						decls = append(decls, td)
					case *ast.ValueSpec:
						td := topDecl{pos: position(fset, rel, s.Names[0]), foreign: foreign}
						if s.Type != nil {
							td.parts = append(td.parts, s.Type)
						}
						for _, n := range s.Names {
							td.keys = append(td.keys, pkg+"."+n.Name)
							td.names = append(td.names, n.Name)
						}
						for _, v := range s.Values {
							td.parts = append(td.parts, v)
						}
						decls = append(decls, td)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Candidates: exported names under internal/ of exported receivers.
	declared := map[string]topDecl{}
	for _, d := range decls {
		if !strings.HasPrefix(d.pos, "internal/") {
			continue
		}
		for i, key := range d.keys {
			if parts := strings.Split(key, "."); ast.IsExported(parts[1]) && ast.IsExported(d.names[i]) {
				declared[key] = topDecl{names: d.names[i : i+1], pos: d.pos}
			}
		}
	}
	prod, kept := map[string]bool{}, map[string]bool{}
	for _, d := range decls {
		mentioned := prod
		if slices.ContainsFunc(d.keys, func(k string) bool { _, ok := allow[k]; return ok }) {
			mentioned = kept
		}
		for _, part := range d.parts {
			ast.Inspect(part, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && d.foreign[pkg.Name] {
						return false
					}
				case *ast.Ident:
					if !slices.Contains(d.names, x.Name) {
						mentioned[x.Name] = true
					}
				}
				return true
			})
		}
	}

	var problems []string
	for key, d := range declared {
		if _, ok := allow[key]; !ok && !prod[d.names[0]] && !kept[d.names[0]] {
			problems = append(problems, fmt.Sprintf("%s: exported %s has no production caller", d.pos, key))
		}
	}
	for key := range allow {
		switch d, ok := declared[key]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("cmd/docscheck: allowlisted %s is not declared", key))
		case prod[d.names[0]]:
			problems = append(problems, fmt.Sprintf("%s: allowlisted %s has a production caller", d.pos, key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// foreignImports returns the names f imports packages under, except
// internal/ packages: only those can declare a candidate, and Go lets a
// module import no internal/ package but its own.
func foreignImports(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if slices.Contains(strings.Split(p, "/"), "internal") {
			continue
		}
		if v := path.Base(p); len(v) > 1 && v[0] == 'v' && strings.Trim(v[1:], "0123456789") == "" {
			p = path.Dir(p) // math/rand/v2 is package rand
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = true
	}
	return names
}

// recvName returns the base type name of a method's receiver, or "" for
// a function.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func position(fset *token.FileSet, rel string, id *ast.Ident) string {
	return fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line)
}
