package core

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/obs/prof"
)

// TestPipelineStagesNameLiveCode holds the contention-attribution table
// to the code it attributes: every prof.PipelineStages rule names a
// package, a type, a function or a method, and that name must exist —
// in this module's non-test source, or, for a standard-library package
// such as runtime, in GOROOT's. A rule matches stack frames by
// substring, so one whose function was renamed or deleted never
// matches again and fails nothing; this test makes the next refactor
// carry the table with it.
func TestPipelineStagesNameLiveCode(t *testing.T) {
	decls := make(map[string]map[string]bool) // package name → declared names
	fset := token.NewFileSet()
	parseDir := func(dir string) error {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if decls[f.Name.Name] == nil {
				decls[f.Name.Name] = make(map[string]bool)
			}
			declaredNames(f, decls[f.Name.Name])
		}
		return nil
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		}
		return parseDir(p)
	})
	if err != nil {
		t.Fatal(err)
	}

	// pkg.(*Type), pkg.(*Type).Method, pkg.Name, pkg.Type.Method, or a
	// bare package prefix "pkg.".
	rule := regexp.MustCompile(`^(\w+)\.(?:\(\*(\w+)\)(?:\.(\w+))?|(\w+(?:\.\w+)?))?$`)
	for _, r := range prof.PipelineStages() {
		m := rule.FindStringSubmatch(r.Match)
		if m == nil {
			t.Errorf("rule %q (%s) is not a package, type, function or method name", r.Match, r.Stage)
			continue
		}
		pkg := m[1]
		if decls[pkg] == nil {
			// Not this module's: a standard-library package, parsed on
			// first use.
			bp, err := build.Import(pkg, "", build.FindOnly)
			if err != nil || !bp.Goroot {
				t.Errorf("rule %q (%s) names package %s, which neither this module nor the standard library has", r.Match, r.Stage, pkg)
				continue
			}
			if err := parseDir(bp.Dir); err != nil {
				t.Fatal(err)
			}
		}
		var want string
		switch {
		case m[2] != "" && m[3] != "":
			want = m[2] + "." + m[3]
		case m[2] != "":
			want = m[2]
		default:
			want = m[4]
		}
		if want != "" && !decls[pkg][want] {
			t.Errorf("rule %q (%s) names %s.%s, which does not exist", r.Match, r.Stage, pkg, want)
		}
	}
}

// declaredNames adds f's top-level types and functions to names, and
// its methods as Type.Method whatever their receiver's pointerness.
func declaredNames(f *ast.File, names map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				names[d.Name.Name] = true
				continue
			}
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch x := typ.(type) {
			case *ast.IndexExpr: // generic receiver
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				names[id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					names[ts.Name.Name] = true
				}
			}
		}
	}
}
