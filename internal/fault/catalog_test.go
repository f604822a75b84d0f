package fault_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestCatalogMatchesCallSites keeps fault.Points() honest: it parses
// every non-test Go file of the module and collects the points passed to
// fault.Check. Every catalog entry must have a call site — a point
// nothing checks is a chaos knob that does nothing — and every call site
// must name a catalog entry.
func TestCatalogMatchesCallSites(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	// The catalog's constants, by identifier.
	consts := map[string]fault.Point{}
	f, err := parser.ParseFile(fset, "fault.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					consts[name.Name] = fault.Point(v)
				}
			}
		}
	}

	checked := map[fault.Point][]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			// A nested module (bench/) is not this module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "" // the file's name for the fault package
		for _, imp := range file.Imports {
			if imp.Path.Value == `"repro/internal/fault"` {
				pkg = "fault"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSel(call.Fun, pkg, "Check") {
				return true
			}
			pos := fset.Position(call.Pos()).String()
			sel, ok := call.Args[0].(*ast.SelectorExpr)
			if !ok || !isSel(sel, pkg, sel.Sel.Name) {
				t.Errorf("%s: fault.Check takes a catalog constant, not %T", pos, call.Args[0])
				return true
			}
			p, ok := consts[sel.Sel.Name]
			if !ok {
				t.Errorf("%s: fault.Check(%s.%s) names no declared point", pos, pkg, sel.Sel.Name)
				return true
			}
			checked[p] = append(checked[p], pos)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	catalog := map[fault.Point]bool{}
	for _, p := range fault.Points() {
		catalog[p] = true
		if len(checked[p]) == 0 {
			t.Errorf("catalog point %s has no fault.Check call site", p)
		}
	}
	for p, sites := range checked {
		if !catalog[p] {
			t.Errorf("point %s is checked at %v but missing from fault.Points()", p, sites)
		}
	}
}

// isSel reports whether e is the selector pkg.name.
func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
