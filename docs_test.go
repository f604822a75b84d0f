package sqe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// citedTest matches a Test, Fuzz or Benchmark function name; a
	// trailing * makes it a prefix.
	citedTest = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9][A-Za-z0-9_]*)(\*?)`)
	// fencedBlock is a ``` block: shell examples, not citations.
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	// inlineCode is one `span`; markdownLink one [text](target).
	inlineCode   = regexp.MustCompile("`([^`]+)`")
	markdownLink = regexp.MustCompile(`\]\(([^)#\s]+)\)`)
)

// declaredTests returns the names of every Test, Fuzz and Benchmark
// function the module's test files declare, bench/ included.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	walkRepo(t, func(p string, _ fs.DirEntry) error {
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && citedTest.MatchString(fd.Name.Name) {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	return names
}

// basenames returns the base name of every file walkRepo visits.
func basenames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	walkRepo(t, func(_ string, d fs.DirEntry) error {
		names[d.Name()] = true
		return nil
	})
	return names
}

// citedPaths returns the repository paths doc cites: each word of an
// inline code span, and each relative link target, that either starts
// with a top-level entry of the repository and a slash, or names a .go
// or .md file. Fenced blocks and words with wildcards are skipped.
func citedPaths(doc string, topLevel map[string]bool) []string {
	doc = fencedBlock.ReplaceAllString(doc, "")
	var words []string
	for _, m := range inlineCode.FindAllStringSubmatch(doc, -1) {
		words = append(words, strings.Fields(m[1])...)
	}
	for _, m := range markdownLink.FindAllStringSubmatch(doc, -1) {
		if !strings.Contains(m[1], "://") {
			words = append(words, m[1])
		}
	}
	var out []string
	for _, w := range words {
		w = strings.Trim(w, `'"(),;:.`)
		w = strings.TrimPrefix(w, "./")
		if w == "" || strings.ContainsAny(w, "*{}<>$=|\\") {
			continue
		}
		first, _, nested := strings.Cut(w, "/")
		switch {
		case nested && topLevel[first]:
			out = append(out, w)
		case !nested && (strings.HasSuffix(w, ".go") || strings.HasSuffix(w, ".md")):
			out = append(out, w)
		}
	}
	return out
}

// TestDocsCiteLiveNames fails when DESIGN.md or README.md cites a test
// no file declares (a trailing * is a prefix that must match at least
// one) or a repository path that does not exist. A bare file name
// must exist somewhere in the tree.
func TestDocsCiteLiveNames(t *testing.T) {
	tests := declaredTests(t)
	files := basenames(t)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	topLevel := map[string]bool{}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".") {
			topLevel[e.Name()] = true
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range citedTest.FindAllStringSubmatch(text, -1) {
			name, prefix := m[1], m[2] == "*"
			found := tests[name]
			for declared := range tests {
				if prefix && strings.HasPrefix(declared, name) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s cites %s%s, which no test file declares", doc, name, m[2])
			}
		}
		for _, p := range citedPaths(text, topLevel) {
			if strings.Contains(p, "/") {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s cites path %s, which does not exist", doc, p)
				}
			} else if !files[p] {
				t.Errorf("%s cites file %s, which is nowhere in the tree", doc, p)
			}
		}
	}
}
