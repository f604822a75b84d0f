package sqe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportsAllowlist names the exported functions and methods under
// internal/ that no non-test file calls and that stay anyway, keyed
// "pkg.Name" or "pkg.Recv.Name", each with the reason it stays.
var exportsAllowlist = map[string]string{
	"entitylink.Dictionary.NumSurfaces":       "dictionary tests check surfaces were registered",
	"fault.Arm":                               "fault registry: chaos tests arm injection",
	"fault.Disarm":                            "fault registry: chaos tests disarm injection",
	"fault.NewRegistry":                       "fault registry: chaos tests build the armed registry",
	"fault.Registry.TotalInjected":            "fault registry: chaos tests assert faults fired",
	"index.Index.PhrasePostings":              "reference the positional memo is proven against",
	"index.Index.PostingsBounds":              "reference the stored and positional bounds are checked against",
	"index.Index.PostingsFor":                 "reference row by term text for index and search tests",
	"index.Index.SetBlockSize":                "tests need many short blocks on small corpora",
	"index.Index.UnorderedWindowPostings":     "reference the positional memo is proven against",
	"index.MappedRegions":                     "close tests assert every mapping is released",
	"index.Snapshot.LiveDocNames":             "differential and tombstone tests read a snapshot's survivors",
	"index.WithVerify":                        "corruption tests force a full checksum pass at Open",
	"kb.Graph.CategoriesAll":                  "root tests compare the public graph with the KB",
	"kb.Graph.Reciprocal":                     "KB and motif tests check link reciprocity",
	"search.SegmentedSearcher.SearchSnapshot": "tests rank one pinned snapshot",
	"search.ubSorter.Less":                    "sort.Interface, called by sort.Sort",
	"serve.Server.Pipeline":                   "serve tests read the aggregated pipeline stats",
	"wikigen.MustGenerate":                    "tests generate fixed worlds",
	"wikigen.World.TopicOf":                   "generator and dataset tests check topic assignment",
}

// TestInternalExportsHaveCallers fails for any exported top-level
// function or method under internal/ whose name no non-test Go file of
// the module (root, internal/, cmd/, examples/, bench/) mentions.
// Nothing outside the module can import internal/, so such a function is
// reached only by its own tests. The check is by name: a dead function
// that shares a live one's name (Search and sort.Search) goes unnoticed,
// but a live one is never flagged.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct{ name, key, pos string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					key += id.Name + "."
				}
			}
			decls = append(decls, decl{fd.Name.Name, key + fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		_, allowed := exportsAllowlist[d.key]
		switch {
		case used[d.name] && allowed:
			t.Errorf("%s is allowlisted but has a caller: drop its entry", d.key)
		case !used[d.name] && !allowed:
			t.Errorf("%s: %s has no caller outside tests: delete it or allowlist it with a reason", d.pos, d.key)
		}
	}
}
