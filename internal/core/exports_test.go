package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist holds the exported names that stay without a caller
// the export rule counts, each with the test, benchmark or doc that
// keeps it.
var exportAllowlist = map[string]string{
	// The checkpoint codec's encoders: the current version and the two
	// old layouts (ISSUE 15: kept so a file an older build wrote is
	// still tested to restore).
	"internal/checkpoint.Encode":   "fuzzed wire codec: FuzzDecode seeds and re-encodes with it; the round-trip and delta-chain tests pin its bytes",
	"internal/checkpoint.EncodeV1": "v1 encoder (ISSUE 15): FuzzDecode seeds with it; TestKillRestoreV1Compat restores what it writes",
	"internal/checkpoint.EncodeV2": "v2 encoder (ISSUE 15): FuzzDecode seeds with it; TestKillRestoreV2Compat restores what it writes",

	// Item 22 drives its exact work ledger through the synchronous
	// pass; item 23 replays verdicts from the report log.
	"internal/core.Live.Ingest":                   "ROADMAP item 22's seeded stream enters here; core's push/ledger tests and BenchmarkCheckpoint feed Live through it today",
	"internal/telemetry.NewReportLog":             "ROADMAP item 23's report log; TestReportLogRoundTrip and BenchmarkStorage_ReportLog write through it",
	"internal/telemetry.OpenReportLog":            "ROADMAP item 23's report-log reader; TestReportLogRoundTrip reads back through it",
	"internal/telemetry.ReportLog.Append":         "ROADMAP item 23's report log; TestReportLogRoundTrip and BenchmarkStorage_ReportLog",
	"internal/telemetry.ReportLog.BytesPerReport": "ROADMAP item 23's report log; BenchmarkStorage_ReportLog reports it (DESIGN.md ext-telemetry)",
	"internal/telemetry.ReportLog.Flush":          "ROADMAP item 23's report log; TestReportLogRoundTrip",
	"internal/telemetry.ReportLogReader.ReadAll":  "ROADMAP item 23's report-log reader; TestReportLogRoundTrip",

	// Fuzzed wire codecs.
	"internal/telemetry.EncodeHeader": "fuzzed wire codec: FuzzDecodeHeader's seeds and TestHeaderRoundTrip encode with it",
	"internal/telemetry.DecodeHeader": "fuzzed wire codec: FuzzDecodeHeader and TestDecodeHeaderErrors",

	// Reference implementations and oracles tests compare against.
	"internal/ml.SequentialPredict":     "reference implementation: TestPredictBatchMatchesSequential and BenchmarkPredictBatch compare batched scoring against it",
	"internal/ml.Dataset.Validate":      "oracle: TestCollectProducesBothDatasets checks every capture's structure with it",
	"internal/fault.Injector.IsTainted": "oracle: TestChaosFaultFreeFlowsBitIdentical compares only flows no fault touched",

	// Seams of the ablations EXPERIMENTS.md documents (`go test -bench
	// Ablation`).
	"internal/telemetry.NewProbabilistic": "PINT sampling ablation: BenchmarkAblation_INTSamplingOverhead (EXPERIMENTS.md)",
	"internal/telemetry.ModeEmbed":        "INT-MD vs INT-XD ablation: BenchmarkAblation_EmbedVsPostcard (EXPERIMENTS.md)",
	"internal/flow.Table.Sweep":           "flow-table eviction ablation: BenchmarkAblation_FlowEviction (EXPERIMENTS.md); FuzzTable and the sweep tests",
	"internal/experiment.DropType":        "ensemble-vs-single ablation: BenchmarkAblation_EnsembleVsSingle holds SlowLoris out with it (EXPERIMENTS.md)",
}

// TestExportsHaveCallers enforces the surface rule for exported names,
// on the programs the knob tests load:
//
//   - every exported package-level name and every exported method under
//     internal/ is used by some non-test file of the module;
//   - every exported name of the root package (the facade) is used by a
//     non-test file under cmd/, examples/, benchmark/ or scripts/, or by
//     the root's example_test.go.
//
// A method is used when a selector resolves to it, or when its type
// implements an interface that the calling programs name and that
// declares the method: an interface of this module only if some
// calling program calls that method of it, one from outside (sort,
// slog, heap) on satisfaction alone, since code the scan does not
// read calls it. String() string and Error() string always count. An
// exported interface's own methods are held to the same rule. Names
// on exportAllowlist may stay unused, and only while unused.
func TestExportsHaveCallers(t *testing.T) {
	dead := deadExports(t)
	for _, name := range dead {
		if exportAllowlist[name] == "" {
			t.Errorf("%s has no caller: delete it, or allowlist it with the reason it stays", name)
		}
	}
	isDead := make(map[string]bool, len(dead))
	for _, name := range dead {
		isDead[name] = true
	}
	declared := make(map[string]bool)
	for _, p := range modulePrograms(t) {
		if !p.test {
			for _, d := range declaredExports(p) {
				declared[exportName(d)] = true
			}
		}
	}
	for name, reason := range exportAllowlist {
		switch {
		case reason == "":
			t.Errorf("%s is allowlisted without a reason", name)
		case !declared[name]:
			t.Errorf("%s is allowlisted but no longer declared: drop it from exportAllowlist", name)
		case !isDead[name]:
			t.Errorf("%s is allowlisted but has a caller now: drop it from exportAllowlist", name)
		}
	}
}

// TestExportScanMethodRule runs the export rule's use and interface
// logic on a fixture package that is its own caller.
func TestExportScanMethodRule(t *testing.T) {
	const src = `package fixture

import (
	"fmt"
	"sort"
)

type Shape interface{ Area() float64 }

type Square struct{ side float64 }

func (s Square) Area() float64      { return s.side * s.side }
func (s Square) Perimeter() float64 { return 4 * s.side }

type Sizer interface{ Size() int }

type Box struct{}

func (Box) Size() int { return 1 }

var _ Sizer = Box{}

type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

type Name string

func (n Name) String() string { return string(n) }

func Used() float64 {
	var s Shape = Square{side: 2}
	fmt.Println(Name("n"))
	sort.Sort(ByLen{"ab", "a"})
	return s.Area()
}

func Orphan(n int) int {
	if n == 0 {
		return 0
	}
	return Orphan(n - 1)
}

func init() { Used() }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// Checked as one of the module's packages, so its interfaces are
	// held to the call rule.
	pkg, err := (&types.Config{Importer: importer.Default()}).Check(module+"/internal/fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	p := program{files: []*ast.File{f}, info: info, types: pkg}
	flagged := make(map[string]bool)
	for _, name := range unusedExports([]program{p}, []program{p}) {
		flagged[name] = true
	}
	for _, c := range []struct {
		name, why string
		want      bool
	}{
		{"internal/fixture.Square.Area", "reached through a Shape value that calls it", false},
		{"internal/fixture.Shape.Area", "called through a Shape value", false},
		{"internal/fixture.Name.String", "reached only through fmt", false},
		{"internal/fixture.ByLen.Less", "a sort.Interface handed to sort.Sort", false},
		{"internal/fixture.Used", "called from init", false},
		{"internal/fixture.Shape", "names a variable's type", false},
		{"internal/fixture.Sizer", "names a variable's type", false},
		{"internal/fixture.Orphan", "called only by itself", true},
		{"internal/fixture.Square.Perimeter", "no caller, no interface declares it", true},
		{"internal/fixture.Sizer.Size", "a module interface's method nobody calls", true},
		{"internal/fixture.Box.Size", "satisfies Sizer, whose Size nobody calls", true},
	} {
		if flagged[c.name] != c.want {
			t.Errorf("%s (%s): flagged = %v, want %v", c.name, c.why, flagged[c.name], c.want)
		}
	}
}

// exportScan caches deadExports' result.
var exportScan struct {
	sync.Mutex
	done bool
	dead []string
}

// deadExports lists, sorted, the exported names that break the export
// rule: "internal/<pkg>.<Name>", "internal/<pkg>.<Type>.<Method>" and
// "intddos.<Name>".
func deadExports(t *testing.T) []string {
	t.Helper()
	exportScan.Lock()
	defer exportScan.Unlock()
	if !exportScan.done {
		var internal, facade, nonTest, facadeCallers []program
		for _, p := range modulePrograms(t) {
			path := p.types.Path()
			if !p.test {
				nonTest = append(nonTest, p)
			}
			switch {
			case path == module:
				facade = append(facade, p)
			case strings.HasPrefix(path, module+"/internal/"):
				internal = append(internal, p)
			default: // cmd/, examples/, benchmark/, scripts/, example_test.go
				facadeCallers = append(facadeCallers, p)
			}
		}
		dead := append(unusedExports(internal, nonTest), unusedExports(facade, facadeCallers)...)
		sort.Strings(dead)
		exportScan.dead = dead
		exportScan.done = true
	}
	return exportScan.dead
}

// exportName names a declared object as the export rule reports it:
// its package path less the module prefix ("intddos" for the root),
// then the receiver's type name for a method, then its own name.
func exportName(obj types.Object) string {
	path := strings.TrimPrefix(obj.Pkg().Path(), module+"/")
	if obj.Pkg().Path() == module {
		path = obj.Pkg().Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return path + "." + recvName(recv.Type()) + "." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}

// recvName is a receiver type's name without pointer or type
// arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// declaredExports lists the exported package-level names, exported
// methods and exported interfaces' exported methods p's files declare.
func declaredExports(p program) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.IsExported() {
			if obj := p.info.Defs[id]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
						if it, ok := s.Type.(*ast.InterfaceType); ok && s.Name.IsExported() {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	return objs
}

// unusedExports lists, by exportName, the names decls declare that no
// file of callers uses. A use inside the declaration itself (a
// recursive call, a method's own receiver) does not count. A method
// also counts as used when its type, or a pointer to it, implements an
// interface that declares it and that callers name anywhere: one of
// this module when callers call that interface method (a handler
// reached through an interface value), one from outside always
// (sort.Interface methods handed to sort.Sort). String() string and
// Error() string always count, since fmt reaches them.
func unusedExports(decls, callers []program) []string {
	used := make(map[types.Object]bool)
	for _, p := range callers {
		for _, f := range p.files {
			for _, d := range f.Decls {
				markUses(d, p.info, used)
			}
		}
	}
	ifaces := interfacesNamed(callers)
	var names []string
	for _, p := range decls {
		for _, obj := range declaredExports(p) {
			if !used[obj] && !reachedThroughInterface(obj, ifaces, used) {
				names = append(names, exportName(obj))
			}
		}
	}
	return names
}

// markUses adds to used every object d refers to, outside d's own
// declared names and its receiver. Each spec of a general declaration
// is its own declaration: a constant that an iota block's later names
// read is used.
func markUses(d ast.Decl, info *types.Info, used map[types.Object]bool) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		markIn(d, info, used, []*ast.Ident{d.Name}, d.Recv)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				markIn(s, info, used, []*ast.Ident{s.Name}, nil)
			case *ast.ValueSpec:
				markIn(s, info, used, s.Names, nil)
			default:
				markIn(s, info, used, nil, nil)
			}
		}
	}
}

// markIn marks every object n's identifiers use, except the objects
// the self identifiers declare and what lies under skip.
func markIn(n ast.Node, info *types.Info, used map[types.Object]bool, self []*ast.Ident, skip ast.Node) {
	isSelf := make(map[types.Object]bool, len(self))
	for _, id := range self {
		isSelf[info.Defs[id]] = true
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		var obj types.Object
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				obj = sel.Obj()
			}
		case *ast.Ident:
			obj = info.Uses[n]
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj != nil && !isSelf[obj] {
			used[obj] = true
		}
		return true
	})
}

// interfacesNamed lists the non-empty interface types progs name: the
// type of any expression (type expressions included), and the
// interfaces those reach through signatures, pointers, containers and
// struct fields.
func interfacesNamed(progs []program) []*types.Interface {
	seen := make(map[types.Type]bool)
	var ifaces []*types.Interface
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			walk(t.Underlying())
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				walk(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				walk(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, p := range progs {
		for _, tv := range p.info.Types {
			walk(tv.Type)
		}
	}
	return ifaces
}

// reachedThroughInterface reports whether obj is a method fmt reaches
// (String, Error) or one its type satisfies some interface of ifaces
// with: an interface from outside the module, or one whose method of
// that name is in called.
func reachedThroughInterface(obj types.Object, ifaces []*types.Interface, called map[types.Object]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, iface := range ifaces {
		if iface.Empty() {
			continue
		}
		reaches := false
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); m.Name() == fn.Name() {
				reaches = called[m] || !inModule(m.Pkg())
				break
			}
		}
		if reaches && (types.Implements(recv, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}

// inModule reports whether pkg is one of this module's packages (false
// for the universe's error).
func inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == module || strings.HasPrefix(pkg.Path(), module+"/"))
}
