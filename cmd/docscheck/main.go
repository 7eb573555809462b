// Command docscheck is the CI docs gate. It fails on: broken relative
// links in the repository's markdown files; references to *.md files
// inside Go comments that point at files which do not exist (the drift
// that once left package docs citing design notes nobody wrote); and
// exported identifiers in the godoc-gated packages (internal/precond,
// internal/campaign, internal/service, internal/obs, internal/traceq,
// internal/jsonl, internal/stats, internal/fault) that lack doc
// comments. It takes the repository root as an optional argument
// (default ".") and exits non-zero with one line per problem.
//
//	go run ./cmd/docscheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// godocGated lists the packages whose exported identifiers must all
// carry doc comments. New subsystems join this list as they land.
var godocGated = []string{
	filepath.Join("internal", "precond"),
	filepath.Join("internal", "campaign"),
	filepath.Join("internal", "service"),
	filepath.Join("internal", "obs"),
	filepath.Join("internal", "traceq"),
	filepath.Join("internal", "jsonl"),
	filepath.Join("internal", "stats"),
	filepath.Join("internal", "fault"),
}

// run performs all checks and returns the sorted problem list.
func run(root string) ([]string, error) {
	var problems []string
	links, err := checkLinks(root)
	if err != nil {
		return nil, err
	}
	problems = append(problems, links...)
	refs, err := checkGoCommentRefs(root)
	if err != nil {
		return nil, err
	}
	problems = append(problems, refs...)
	for _, pkg := range godocGated {
		docs, err := checkExportedDocs(filepath.Join(root, pkg))
		if err != nil {
			return nil, err
		}
		problems = append(problems, docs...)
	}
	sort.Strings(problems)
	return problems, nil
}

// mdLink matches [text](target); targets with spaces or parens are not
// used in this repository.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks walks every *.md under root and verifies each relative
// link target exists (anchors stripped). Absolute URLs and pure-anchor
// links are out of scope.
func checkLinks(root string) ([]string, error) {
	var problems []string
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
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken relative link %q", filepath.ToSlash(rel), m[1]))
			}
		}
		return nil
	})
	return problems, err
}

// mdRef matches a documentation-file reference inside prose: a
// non-empty path stem ending in ".md". The leading character class
// keeps glob-ish mentions like "*.md" out.
var mdRef = regexp.MustCompile(`[A-Za-z0-9][A-Za-z0-9_./-]*\.md\b`)

// urlRef matches absolute URLs; they are stripped before scanning so a
// comment citing e.g. https://example.com/blob/main/README.md is not
// mistaken for a repository-relative reference.
var urlRef = regexp.MustCompile(`[a-zA-Z][a-zA-Z0-9+.-]*://\S+`)

// checkGoCommentRefs walks every *.go file under root and verifies
// that each *.md file its comments mention exists — resolved against
// the repository root (the convention for cross-package references
// like "docs/SERVICE.md") or against the file's own directory. This is
// the gate that keeps Go package docs from citing documentation that
// was never written or has been renamed: markdown links are already
// covered by checkLinks, but Go comments are plain prose and used to
// drift silently.
func checkGoCommentRefs(root string) ([]string, error) {
	var problems []string
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
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		seen := map[string]bool{}
		for _, cg := range file.Comments {
			text := urlRef.ReplaceAllString(cg.Text(), " ")
			for _, m := range mdRef.FindAllString(text, -1) {
				if seen[m] {
					continue
				}
				seen[m] = true
				target := filepath.FromSlash(m)
				if _, err := os.Stat(filepath.Join(root, target)); err == nil {
					continue
				}
				if _, err := os.Stat(filepath.Join(filepath.Dir(path), target)); err == nil {
					continue
				}
				problems = append(problems, fmt.Sprintf("%s: comment references %q, which does not exist", filepath.ToSlash(rel), m))
			}
		}
		return nil
	})
	return problems, err
}

// checkExportedDocs parses the package at dir and reports every
// exported top-level function, method, type, constant and variable
// without a doc comment.
func checkExportedDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(filepath.Join(dir, filepath.Base(p.Filename))), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems, nil
}
