package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestLiveConfigKnobsHaveCallers enforces the surface rule for
// LiveConfig: an exported field is a knob some program sets, or it is
// a constant, with a seam on Live only if a test varies it. It parses the non-test Go files
// under cmd/, examples/, internal/ (core aside) and benchmark/ and
// fails on any field never set there — neither a key of a
// core.LiveConfig / intddos.LiveRuntimeConfig composite literal nor the
// target of an assignment through a variable or parameter declared
// with that type.
func TestLiveConfigKnobsHaveCallers(t *testing.T) {
	root := filepath.Join("..", "..")
	skip := filepath.Join(root, "internal", "core")
	set := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && p == skip:
				return fs.SkipDir
			case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				return err
			}
			liveConfigSets(f, set)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	typ := reflect.TypeOf(LiveConfig{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() && !set[f.Name] {
			t.Errorf("LiveConfig.%s is set by no program: make it a constant (with a Live field if a test varies it) or delete it", f.Name)
		}
	}
}

// liveConfigSets adds to set every LiveConfig field f sets.
func liveConfigSets(f *ast.File, set map[string]bool) {
	const module = "github.com/amlight/intddos"
	imports := make(map[string]string) // local name → import path
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		name := path.Base(p)
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = p
	}
	isConfig := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch imports[pkg.Name] {
		case module + "/internal/core":
			return sel.Sel.Name == "LiveConfig"
		case module:
			return sel.Sel.Name == "LiveRuntimeConfig"
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && isConfig(lit.Type) {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				}
			}
		}
		return true
	})
	// Variables declared with the type: package-level vars, and within
	// one top-level declaration its function parameters and results, var
	// declarations, and short declarations from a literal. Struct fields
	// are not variables, and one declaration's names never leak into
	// another's, so a same-named variable of another type is not taken
	// for a setter.
	declare := func(vars map[string]bool, typ ast.Expr, names []*ast.Ident) {
		if typ != nil && isConfig(typ) {
			for _, id := range names {
				vars[id.Name] = true
			}
		}
	}
	declareFunc := func(vars map[string]bool, ft *ast.FuncType) {
		for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
			if fl != nil {
				for _, field := range fl.List {
					declare(vars, field.Type, field.Names)
				}
			}
		}
	}
	pkgVars := make(map[string]bool)
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok {
			for _, s := range g.Specs {
				if vs, ok := s.(*ast.ValueSpec); ok {
					declare(pkgVars, vs.Type, vs.Names)
				}
			}
		}
	}
	// Each top-level declaration is one scope: a function, or a
	// package-level initializer with the function literals in it.
	for _, d := range f.Decls {
		vars := maps.Clone(pkgVars)
		if fd, ok := d.(*ast.FuncDecl); ok {
			declareFunc(vars, fd.Type)
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				declareFunc(vars, n.Type)
			case *ast.ValueSpec:
				declare(vars, n.Type, n.Names)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if u, ok := rhs.(*ast.UnaryExpr); ok {
						rhs = u.X
					}
					if lit, ok := rhs.(*ast.CompositeLit); ok && isConfig(lit.Type) && i < len(n.Lhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							vars[id.Name] = true
						}
					}
				}
			}
			return true
		})
		ast.Inspect(d, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && vars[id.Name] {
							set[sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
}
