package main

import (
	"os"
	"path/filepath"
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

// TestUnusedExportIsCaught exercises the unused-export checker on a
// synthetic module: an export only a test calls is flagged, and so is a
// type whose one mention is its method's receiver, and a function whose
// name is mentioned only as a standard-library function's; an allowlisted
// export passes, keeps what it mentions, and makes no other entry
// stale; an entry for a name that is gone or has a production caller is
// flagged as stale.
func TestUnusedExportIsCaught(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"internal/p/p.go": `package p

// Used has a production caller.
func Used() {}

// TestOnly is called by p_test.go alone.
func TestOnly() {}

// Kept has no caller but is allowlisted.
func Kept() *Ref { return &Ref{h: Helper{}} }

// Ref is allowlisted, and mentioned only by Kept.
type Ref struct{ h Helper }

// Helper is mentioned only by allowlisted code, which keeps it.
type Helper struct{}

// Orphan is mentioned only by its method's receiver.
type Orphan struct{}

// Used shares its name with the function main calls.
func (Orphan) Used() {}

// Contains shares its name with the strings function main calls.
func Contains() {}
`,
		"internal/p/p_test.go": "package p\n\nfunc use() { TestOnly(); Kept() }\n",
		"cmd/x/main.go": `package main

import (
	"strings"

	"m/internal/p"
)

func main() { p.Used(); _ = strings.Contains("ab", "b") }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := checkUnusedExports(dir, map[string]string{
		"p.Kept": "reason", "p.Ref": "reason", "p.Gone": "reason", "p.Used": "reason",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/docscheck: allowlisted p.Gone is not declared",
		"internal/p/p.go:19: exported p.Orphan has no production caller",
		"internal/p/p.go:25: exported p.Contains has no production caller",
		"internal/p/p.go:4: allowlisted p.Used has a production caller",
		"internal/p/p.go:7: exported p.TestOnly has no production caller",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}
