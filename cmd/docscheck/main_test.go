package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepositoryIsClean makes the docs gate part of the tier-1 suite:
// the repository's own markdown links, doc comments and exports must
// pass the same checks CI runs.
func TestRepositoryIsClean(t *testing.T) {
	problems, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestBrokenLinkIsCaught exercises the link checker's failure path on a
// synthetic file tree.
func TestBrokenLinkIsCaught(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "doc.md")
	content := "[ok](./doc.md) [web](https://example.com) [anchor](#x) [bad](missing/file.md)\n"
	if err := os.WriteFile(md, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "missing/file.md") {
		t.Errorf("want exactly the one broken link flagged, got %v", problems)
	}
}

// TestGoCommentRefIsCaught exercises the Go-comment doc-reference
// checker on a synthetic tree: a comment citing a missing .md file is
// flagged; root-relative, file-relative and glob-ish mentions are not.
func TestGoCommentRefIsCaught(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "docs", "REAL.md"), []byte("# real\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "LOCAL.md"), []byte("# local\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `// Package p cites docs/REAL.md (exists, root-relative), LOCAL.md
// (exists, file-relative), every *.md glob (not a reference), an
// external https://example.com/blob/main/ELSEWHERE.md URL (not a
// repository reference), and GHOST.md, which does not exist.
package p
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkGoCommentRefs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "GHOST.md") {
		t.Errorf("want exactly GHOST.md flagged, got %v", problems)
	}
}

// TestUndocumentedExportIsCaught exercises the godoc checker's failure
// path on a synthetic package.
func TestUndocumentedExportIsCaught(t *testing.T) {
	dir := t.TempDir()
	src := `package p

// Documented is fine.
func Documented() {}

func Naked() {}

type Bare struct{}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkExportedDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Errorf("want 2 problems (Naked, Bare), got %v", problems)
	}
}

// writeModule writes files (slash-separated paths relative to the
// module root) into a fresh module named m and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestUnusedExportIsCaught exercises the unused-export checker on a
// synthetic module: an export only a test calls is flagged, and so is a
// type whose one use is its method's receiver, a function or method
// whose name only a standard-library function or another type's method
// shares (strings.Contains, sync.Cond's Broadcast), a method named like
// a type or a field that is used, and a method named by an interface
// its type does not implement (Set(float64) beside flag.Value); a
// method reached only through an interface its type implements is not;
// an allowlisted export passes, keeps what it uses, and makes no other
// entry stale; an entry for a name that is gone or has a production
// caller is flagged as stale.
func TestUnusedExportIsCaught(t *testing.T) {
	files := map[string]string{
		"internal/p/p.go": `package p

// Used has a production caller.
func Used() {}

// TestOnly is called by p_test.go alone.
func TestOnly() {}

// Kept has no caller but is allowlisted.
func Kept() *Ref { return &Ref{h: Helper{}} }

// Ref is allowlisted, and used only by Kept.
type Ref struct{ h Helper }

// Helper is used only by allowlisted code, which keeps it.
type Helper struct{}

// Orphan is used only by its method's receiver.
type Orphan struct{}

// Used shares its name with the function main calls.
func (Orphan) Used() {}

// Contains shares its name with the strings function main calls.
func Contains() {}
`,
		"internal/p/shapes.go": `package p

import "sync"

// Pool is used by main.
type Pool struct {
	cond   *sync.Cond
	Failed bool
}

// Wake is called by main; it calls sync.Cond's Broadcast.
func (p *Pool) Wake() { p.cond.Broadcast() }

// Broadcast shares its name with the sync.Cond method Wake calls.
func (p *Pool) Broadcast() {}

// RNG shares its name with the type main uses.
func (p *Pool) RNG() {}

// RNG is used by main.
type RNG struct{}

// Failed shares its name with Pool's field, which main reads.
func (RNG) Failed() bool { return false }

// Level is used by main, next to flag.Value.
type Level struct{}

// Set is named by flag.Value, which Level does not implement.
func (*Level) Set(v float64) {}

// Shape is the interface Total calls Area through.
type Shape interface{ Area() float64 }

// Square is passed to Total by main.
type Square struct{}

// Area is called only through Shape, which Square implements.
func (Square) Area() float64 { return 1 }

// Total is called by main.
func Total(s Shape) float64 { return s.Area() }
`,
		"internal/p/p_test.go": "package p\n\nfunc use() { TestOnly(); Kept() }\n",
		"cmd/x/main.go": `package main

import (
	"flag"
	"strings"
	"sync"

	"m/internal/p"
)

func main() {
	p.Used()
	_ = strings.Contains("ab", "b")
	pool := &p.Pool{}
	pool.Wake()
	var mu sync.Mutex
	sync.NewCond(&mu).Broadcast()
	_ = pool.Failed
	_ = p.RNG{}
	var v flag.Value
	_, _ = v, p.Level{}
	_ = p.Total(p.Square{})
}
`,
	}
	dir := writeModule(t, files)
	problems, err := checkUnusedExports(dir, map[string]string{
		"p.Kept": "reason", "p.Ref": "reason", "p.Gone": "reason", "p.Used": "reason",
	})
	if err != nil {
		t.Fatal(err)
	}
	at := func(file, decl string) string {
		before, _, _ := strings.Cut(files[file], decl)
		return fmt.Sprintf("%s:%d", file, strings.Count(before, "\n")+1)
	}
	want := []string{
		"cmd/docscheck: allowlisted p.Gone is not declared",
		at("internal/p/p.go", "func Contains") + ": exported p.Contains has no production caller",
		at("internal/p/p.go", "func Used") + ": allowlisted p.Used has a production caller",
		at("internal/p/p.go", "type Orphan") + ": exported p.Orphan has no production caller",
		at("internal/p/p.go", "func (Orphan) Used") + ": exported p.Orphan.Used has no production caller",
		at("internal/p/p.go", "func TestOnly") + ": exported p.TestOnly has no production caller",
		at("internal/p/shapes.go", "func (*Level) Set") + ": exported p.Level.Set has no production caller",
		at("internal/p/shapes.go", "func (RNG) Failed") + ": exported p.RNG.Failed has no production caller",
		at("internal/p/shapes.go", "func (p *Pool) Broadcast") + ": exported p.Pool.Broadcast has no production caller",
		at("internal/p/shapes.go", "func (p *Pool) RNG") + ": exported p.Pool.RNG has no production caller",
	}
	sort.Strings(want)
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// TestUnusedExportScanErrors: a package that does not compile, or
// imports one that does not exist, is one error line naming the cause,
// not a panic.
func TestUnusedExportScanErrors(t *testing.T) {
	for cause, src := range map[string]string{
		"p.go:4:":            "package p\n\n// F is wrong.\nfunc F() int { return \"s\" }\n",
		"m/internal/missing": "package p\n\nimport \"m/internal/missing\"\n",
	} {
		_, err := checkUnusedExports(writeModule(t, map[string]string{"internal/p/p.go": src}), nil)
		if err == nil || !strings.HasPrefix(err.Error(), "go list: ") || !strings.Contains(err.Error(), cause) || strings.Contains(err.Error(), "\n") {
			t.Errorf("error %q, want one go list line naming %q", err, cause)
		}
	}
}
