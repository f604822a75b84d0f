package sqe

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsAllowlist names the exported declarations that no non-test
// file uses and that stay anyway, keyed "pkg.Name" or "pkg.Recv.Name",
// each with the reason it stays.
var exportsAllowlist = map[string]string{
	"entitylink.Dictionary.NumSurfaces":       "dictionary tests check surfaces were registered",
	"fault.Arm":                               "fault registry: chaos tests arm injection",
	"fault.Disarm":                            "fault registry: chaos tests disarm injection",
	"fault.NewRegistry":                       "fault registry: chaos tests build the armed registry",
	"fault.Registry.Set":                      "fault registry: chaos tests set per-point policies",
	"fault.Registry.TotalInjected":            "fault registry: chaos tests assert faults fired",
	"index.Index.PhrasePostings":              "reference the positional memo is proven against",
	"index.Index.PostingsFor":                 "reference row by term text for index and search tests",
	"index.Index.SetBlockSize":                "tests need many short blocks on small corpora",
	"index.Index.UnorderedWindowPostings":     "reference the positional memo is proven against",
	"index.MappedRegions":                     "close tests assert every mapping is released",
	"index.Snapshot.LiveDocNames":             "differential and tombstone tests read a snapshot's survivors",
	"index.WithVerify":                        "corruption tests force a full checksum pass at Open",
	"index.corruptError.Unwrap":               "error wrapping, called by errors.Is and errors.As",
	"kb.Graph.CategoriesAll":                  "root tests compare the public graph with the KB",
	"kb.Graph.Reciprocal":                     "KB and motif tests check link reciprocity",
	"search.SegmentedSearcher.SearchSnapshot": "tests rank one pinned snapshot",
	"search.ubSorter.Len":                     "sort.Interface, called by sort.Sort",
	"search.ubSorter.Less":                    "sort.Interface, called by sort.Sort",
	"search.ubSorter.Swap":                    "sort.Interface, called by sort.Sort",
	"searchtest.New":                          "the test oracle, imported by tests only",
	"serve.Server.Pipeline":                   "serve tests read the aggregated pipeline stats",
	"serve.Server.ServeHTTP":                  "http.Handler, called by net/http",
	"sqe.Engine.Graph":                        "fault and serve tests build engines over a demo's graph",
	"sqe.Engine.ParseQuery":                   "public API README documents",
	"sqe.GenerateDemoCorpus":                  "public API serve tests build a live demo from",
	"wikigen.MustGenerate":                    "tests generate fixed worlds",
	"wikigen.World.TopicOf":                   "generator and dataset tests check topic assignment",
}

// walkRepo calls fn for every file of the repository, bench/ included,
// leaving out hidden directories and testdata.
func walkRepo(t *testing.T, fn func(p string, d fs.DirEntry) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		return fn(p, d)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// modulePackages parses the non-test Go files of every package of the
// module, bench/ included, keyed by import path. Files a build
// constraint excludes on this platform are left out.
func modulePackages(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	pkgs := map[string][]*ast.File{}
	walkRepo(t, func(p string, d fs.DirEntry) error {
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	return pkgs
}

// moduleImporter type-checks the module's packages from source on
// demand and imports everything else from the toolchain's export data.
type moduleImporter struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	std     types.Importer
	checked map[string]*types.Package
	uses    map[types.Object]bool
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if pkg, ok := m.checked[ip]; ok {
		return pkg, nil
	}
	files, ok := m.files[ip]
	if !ok {
		return m.std.Import(ip)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(ip, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", ip, err)
	}
	m.checked[ip] = pkg
	for _, obj := range info.Uses {
		m.uses[origin(obj)] = true
	}
	return pkg, nil
}

// origin maps a use of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportedDecl is one exported declaration the check covers.
type exportedDecl struct {
	key string
	obj types.Object
}

// coveredDecls lists the exported top-level funcs and methods of every
// internal/ package, and every exported func, method, type, const and
// var of the root package.
func coveredDecls(pkgs map[string]*types.Package) []exportedDecl {
	var out []exportedDecl
	for ip, pkg := range pkgs {
		root := ip == "repro"
		if !root && !strings.HasPrefix(ip, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if _, fn := obj.(*types.Func); obj.Exported() && (root || fn) {
				out = append(out, exportedDecl{pkg.Name() + "." + name, obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, exportedDecl{pkg.Name() + "." + name + "." + m.Name(), m})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func isMethod(fn *types.Func) bool { return fn.Type().(*types.Signature).Recv() != nil }

// implementsUsed reports whether method m satisfies a method of some
// interface that a non-test file calls: such a method is reached
// through the interface.
func implementsUsed(m *types.Func, ifaceMethods []*types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	for _, im := range ifaceMethods {
		if im.Name() != m.Name() {
			continue
		}
		iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if ok && types.Implements(recv, iface) {
			return true
		}
	}
	return false
}

// TestInternalExportsHaveCallers fails for any exported top-level
// function or method under internal/, and any exported declaration of
// the root package, that no non-test Go file of the module (root,
// internal/, cmd/, examples/, bench/) uses. Every package is
// type-checked from source, so a use is an object, not a name: a dead
// Sharded.NumDocs is not kept alive by a live Index.NumDocs. A method
// counts as used when a called interface method it implements is.
func TestInternalExportsHaveCallers(t *testing.T) {
	if _, err := os.Stat("bench/go.mod"); err != nil {
		t.Fatalf("bench/ must be checked as a caller: %v", err)
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:    fset,
		files:   modulePackages(t, fset),
		std:     importer.Default(),
		checked: map[string]*types.Package{},
		uses:    map[types.Object]bool{},
	}
	for ip := range m.files {
		if _, err := m.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	// fmt calls String and Error through fmt.Stringer and error.
	fmtPkg, err := m.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaceMethods := []*types.Func{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0),
	}
	for obj := range m.uses {
		if fn, ok := obj.(*types.Func); ok && isMethod(fn) {
			if _, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
	}
	for _, d := range coveredDecls(m.checked) {
		used := m.uses[d.obj]
		if fn, ok := d.obj.(*types.Func); ok && !used && isMethod(fn) {
			used = implementsUsed(fn, ifaceMethods)
		}
		_, allowed := exportsAllowlist[d.key]
		switch {
		case used && allowed:
			t.Errorf("%s is allowlisted but has a caller: drop its entry", d.key)
		case !used && !allowed:
			t.Errorf("%s: %s has no caller outside tests: delete it or allowlist it with a reason", fset.Position(d.obj.Pos()), d.key)
		}
	}
}
