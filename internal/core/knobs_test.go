package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// knobAllowlist holds the config fields that stay though no program
// turns them, each with the test or benchmark that does. An
// allowlisted field counts as a knob under the copy rule, so the
// fields it is copied into need no entry of their own.
var knobAllowlist = map[string]string{
	"internal/testbed.Config.INTMode":    "INT-MD vs INT-XD ablation: BenchmarkAblation_EmbedVsPostcard builds the rig in both modes (EXPERIMENTS.md)",
	"internal/testbed.Config.INTSampler": "PINT sampling ablation: BenchmarkAblation_INTSamplingOverhead builds the rig with each sampler (EXPERIMENTS.md)",
}

// isConfigName reports whether a type name marks a config the knob
// rule holds: Config, or a name ending in Config, Options or Spec.
func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
}

// TestConfigKnobsHaveCallers enforces the surface rule for every config
// under internal/ — every exported struct type isConfigName accepts:
// an exported field is a knob some program turns, or it is a constant
// (with an unexported seam only if a test varies it). Fields on
// knobAllowlist may stay unturned, and only while unturned.
//
// It reads every program modulePrograms loads: the module's non-test
// files and the root's example_test.go. A program turns a field when it gives it a
// value in a config it builds itself: as a key of a composite literal,
// or by assigning through a variable it declared. A value copied from
// another config's field (VoteWindow: cfg.VoteWindow) turns the field
// only if that field is itself a knob. Normalising a config a function
// received — defaulting or clamping it, which reads the field it
// rewrites — turns nothing; a function that sets a field of a config
// it was handed without reading it (the benchmark's configure hooks,
// HopLatencyAblation's INTSet) does.
func TestConfigKnobsHaveCallers(t *testing.T) {
	scan := knobs(t)
	for _, f := range scan.dead {
		t.Errorf("%s is turned by no program: make it a constant (with an unexported seam if a test varies it) or delete it", f)
	}
	for f, reason := range knobAllowlist {
		switch {
		case reason == "":
			t.Errorf("%s is allowlisted without a reason", f)
		case !scan.fields[f]:
			t.Errorf("%s is allowlisted but no longer a config field: drop it from knobAllowlist", f)
		case scan.turned[f]:
			t.Errorf("%s is allowlisted but a program turns it now: drop it from knobAllowlist", f)
		}
	}
}

// TestLiveConfigKnobsHaveCallers holds LiveConfig — the live pipeline's,
// intddos.LiveRuntimeConfig in the facade — to the knob rule on its own,
// so a dead Live knob is named by the test of the config it sits in.
func TestLiveConfigKnobsHaveCallers(t *testing.T) {
	checkKnobsOf(t, "internal/core.LiveConfig")
}

// TestMechanismConfigKnobsHaveCallers holds Config — the simulated
// mechanism's, intddos.MechanismConfig in the facade — to the same rule.
func TestMechanismConfigKnobsHaveCallers(t *testing.T) {
	checkKnobsOf(t, "internal/core.Config")
}

// checkKnobsOf fails on every dead knob of the config s.
func checkKnobsOf(t *testing.T, s string) {
	t.Helper()
	for _, f := range knobs(t).dead {
		if strings.HasPrefix(f, s+".") {
			t.Errorf("%s is turned by no program: make it a constant (with an unexported seam if a test varies it) or delete it", f)
		}
	}
}

// knobResult is the knob scan's finding. Fields are named
// "<dir>/<pkg>.<Struct>.<Field>" ("internal/core.Config.Seed").
type knobResult struct {
	// dead lists, sorted, the exported config fields no program turns
	// and knobAllowlist does not hold.
	dead []string
	// fields holds every exported config field; turned, those some
	// program turns, the allowlist aside.
	fields, turned map[string]bool
}

// knobScan caches the scan's result: type-checking every program once
// serves all three knob tests.
var knobScan struct {
	sync.Mutex
	done bool
	res  knobResult
}

// knobs returns the knob scan's finding.
func knobs(t *testing.T) knobResult {
	t.Helper()
	knobScan.Lock()
	defer knobScan.Unlock()
	if !knobScan.done {
		knobScan.res = scanKnobs(t)
		knobScan.done = true
	}
	return knobScan.res
}

// scanKnobs does the scan knobs caches.
func scanKnobs(t *testing.T) knobResult {
	t.Helper()
	pkgs := modulePrograms(t)

	// tracked holds the configs — the exported struct types under
	// internal/ whose names isConfigName accepts — and fields their
	// exported fields.
	tracked := make(map[string]bool)
	fields := make(map[string]bool)
	for _, p := range pkgs {
		if p.test || !strings.HasPrefix(p.types.Path(), module+"/internal/") {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isConfigName(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue // a Spec that is a map or a slice, say
			}
			config := p.types.Path() + "." + name
			tracked[config] = true
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[config+"."+f.Name()] = true
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no config found: the scan is broken")
	}
	// structOf names the tracked config a field selection or literal
	// belongs to ("" for any other type).
	structOf := func(typ types.Type) string {
		if p, ok := types.Unalias(typ).(*types.Pointer); ok {
			typ = p.Elem()
		}
		n, ok := types.Unalias(typ).(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			return ""
		}
		name := n.Obj().Pkg().Path() + "." + n.Obj().Name()
		if !tracked[name] {
			return ""
		}
		return name
	}

	// knob holds the fields a program turns; copies maps a field to
	// the fields whose values flow into it.
	knob := make(map[string]bool)
	copies := make(map[string][]string)
	for _, p := range pkgs {
		for _, f := range p.files {
			configWrites(f, p.info, structOf, func(field string, value ast.Expr) {
				if src := copiedField(value, p.info, structOf); src != "" {
					copies[field] = append(copies[field], src)
				} else {
					knob[field] = true
				}
			})
		}
	}
	// A copy of a knob is a knob: propagate to the fixed point.
	propagate := func(knob map[string]bool) {
		for changed := true; changed; {
			changed = false
			for dst, srcs := range copies {
				for _, src := range srcs {
					if knob[src] && !knob[dst] {
						knob[dst], changed = true, true
					}
				}
			}
		}
	}
	res := knobResult{fields: make(map[string]bool), turned: make(map[string]bool)}
	allowed := make(map[string]bool)
	for f := range knob {
		allowed[f] = true
	}
	for f := range knobAllowlist {
		allowed[module+"/"+f] = true
	}
	propagate(knob)
	propagate(allowed)
	for f := range fields {
		name := strings.TrimPrefix(f, module+"/")
		res.fields[name] = true
		res.turned[name] = knob[f]
		if !allowed[f] {
			res.dead = append(res.dead, name)
		}
	}
	sort.Strings(res.dead)
	return res
}

// module is the import path every scan in this package resolves
// names against.
const module = "github.com/amlight/intddos"

// program is one type-checked package: a package's non-test files, or
// the root package's example_test.go (test set).
type program struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
	test  bool
}

// loaded caches the one load the knob and export scans share: one
// `go list -deps -export` and one type-check of the module.
var loaded struct {
	sync.Mutex
	done  bool
	progs []program
}

// modulePrograms type-checks, from source, every package of the module
// (the root package and everything under cmd/, examples/, internal/,
// benchmark/ and scripts/) plus the root's example_test.go. Packages
// are checked in dependency order, each against the others'
// source-checked types, so an object has one identity across the
// module; the standard library comes from the export data
// `go list -export` reports.
func modulePrograms(t *testing.T) []program {
	t.Helper()
	loaded.Lock()
	defer loaded.Unlock()
	if !loaded.done {
		loaded.progs = loadPrograms(t, filepath.Join("..", ".."))
		loaded.done = true
	}
	return loaded.progs
}

// loadPrograms does the load modulePrograms caches.
func loadPrograms(t *testing.T, root string) []program {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export",
		".", "./cmd/...", "./examples/...", "./internal/...", "./benchmark/...", "./scripts/...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
	}
	exports := make(map[string]string)
	// mine lists the module's packages, deps first (go list -deps
	// prints every package after its imports).
	var mine []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.ImportPath == module || strings.HasPrefix(p.ImportPath, module+"/") {
			mine = append(mine, p)
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	check := func(path, dir string, names []string, test bool) program {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = pkg
		return program{files: files, info: info, types: pkg, test: test}
	}
	var progs []program
	var rootDir string
	pkgDirs := make(map[string]bool)
	for _, p := range mine {
		progs = append(progs, check(p.ImportPath, p.Dir, p.GoFiles, false))
		pkgDirs[p.Dir] = true
		if p.ImportPath == module {
			rootDir = p.Dir
		}
	}
	if rootDir == "" {
		t.Fatal("go list did not report the root package")
	}
	walkSources(t, rootDir, pkgDirs)
	return append(progs, check(module+"_test", rootDir, []string{"example_test.go"}, true))
}

// walkSources reads every directory of the scanned trees under root
// and fails on one holding non-test Go files that go list did not
// report. Reading the listings also keys go test's result cache on
// them, so a file or package added since the last run re-runs the
// scans instead of replaying a pass from the cache.
func walkSources(t *testing.T, root string, pkgDirs map[string]bool) {
	t.Helper()
	if _, err := os.ReadDir(root); err != nil {
		t.Fatal(err)
	}
	for _, tree := range []string{"cmd", "examples", "internal", "benchmark", "scripts"} {
		err := filepath.WalkDir(filepath.Join(root, tree), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !pkgDirs[filepath.Dir(path)] {
				t.Errorf("%s is in no package go list reported: the scans would miss it", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// configWrites calls write for every value f gives a tracked config
// field (named "<pkg path>.<Struct>.<Field>"): a composite-literal key,
// or an assignment through a variable. An assignment through a
// parameter or receiver is the function normalising the config it
// received — defaulting or clamping it — when the function also reads
// that field, and then turns nothing.
func configWrites(f *ast.File, info *types.Info, structOf func(types.Type) string, write func(field string, value ast.Expr)) {
	type use struct {
		root  types.Object
		field string
	}
	for _, d := range f.Decls {
		received := make(map[types.Object]bool)
		receive := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, field := range fl.List {
				for _, id := range field.Names {
					received[info.Defs[id]] = true
				}
			}
		}
		if fd, ok := d.(*ast.FuncDecl); ok {
			receive(fd.Recv)
		}
		// The selectors assigned to, and the fields read through a
		// received config.
		targets := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				receive(n.Params)
				receive(n.Results)
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							targets[sel] = true
						}
					}
				}
			}
			return true
		})
		reads := make(map[use]bool)
		ast.Inspect(d, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !targets[sel] {
				if s := fieldOwner(sel, info, structOf); s != "" {
					reads[use{rootVar(sel, info), s + "." + sel.Sel.Name}] = true
				}
			}
			return true
		})
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				s := structOf(info.TypeOf(n))
				if s == "" {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							write(s+"."+id.Name, kv.Value)
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					s, root := fieldOwner(sel, info, structOf), rootVar(sel, info)
					if s == "" || root == nil {
						continue
					}
					field := s + "." + sel.Sel.Name
					if received[root] && reads[use{root, field}] {
						continue
					}
					var value ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					write(field, value)
				}
			}
			return true
		})
	}
}

// fieldOwner names the tracked config whose field sel selects.
func fieldOwner(sel *ast.SelectorExpr, info *types.Info, structOf func(types.Type) string) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
		return ""
	}
	return structOf(s.Recv())
}

// rootVar is the variable a selector chain (x.Live.Seed, xs[i].Seed)
// starts from, or nil.
func rootVar(e ast.Expr, info *types.Info) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// copiedField names the tracked field value reads unchanged, or "".
func copiedField(value ast.Expr, info *types.Info, structOf func(types.Type) string) string {
	for {
		p, ok := value.(*ast.ParenExpr)
		if !ok {
			break
		}
		value = p.X
	}
	sel, ok := value.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s := fieldOwner(sel, info, structOf); s != "" {
		return s + "." + sel.Sel.Name
	}
	return ""
}
