package psd

// TestNoTestOnlyAPI keeps the module free of code that only tests reach.
// internal/ cannot be imported from outside the module, so code there is
// functionality only if a program reaches it. The scan type-checks every
// non-test package (go/types; the standard library comes from its export
// data) and reaches, to a fixpoint over each reached declaration's
// types.Info uses and selections, from these roots:
//
//   - every declaration of a package main (cmd/, bench/, examples/) and
//     every init function;
//   - the root package's exported declarations, and every exported method
//     and field of a module type its API exposes (through aliases, field
//     types and signatures, transitively): an importer can call those;
//   - the allowlist below.
//
// A method is reached when it is selected, or when a reached declaration
// converts its receiver type to an interface that names it (assignment,
// argument, return, composite literal, send, comparison, instantiation);
// a type assertion or type switch to an interface counts for every type
// converted to any interface, and a conversion to an empty interface
// reaches the methods fmt and encoding/json call (String, Error, …). A
// field is reached when it is read; one that reached code writes but
// never reads is reported as write-only, except in a JSON-tagged struct
// (encoding/json reads it) or where the root API exposes it. Methods and
// fields of an unreached type are reported through the type. Blank
// padding fields and `var _ I = T{}` assertions are neither roots nor
// findings.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowlist names the internal/ declarations that no program
// reaches but that stay, each for the reason given.
var testOnlyAllowlist = map[string]string{
	"psd/internal/queueing.ExpectedSlowdown": "Theorem 1 for a whole distribution; core's Eq. 18 test checks against it",
	"psd/internal/queueing.PKWait":           "Pollaczek–Khinchine mean wait; the simulator's single-class M/G/1 test checks against it",
	"psd/internal/queueing.SlowdownConstant": "E[X²]·E[1/X]/2; dist's Bounded Pareto tests check the law's moments against it",
	"psd/internal/queueing.MD1Slowdown":      "M/D/1 closed form; the simulator's deterministic-size test checks against it",
	"psd/internal/queueing.MM1Wait":          "M/M/1 closed form; queueing's tests check PKWait against it",
	"psd/internal/core.PacketizedSlowdown":   "the slowdown PacketizedPSD targets; simsrv's packetized tests check the allocator against it",

	"psd/internal/des.Simulator.Now":       "the general event heap is the reference FuzzSlotsVsHeap checks des.Slots against; its clock",
	"psd/internal/des.Simulator.Processed": "the heap reference's event count, compared with Slots'",
	"psd/internal/des.Simulator.RunUntil":  "the heap reference's run loop",

	"psd/internal/obs.Registry.MetricNames": "the registered families; httpsrv's exposition test checks /metrics/prom names each one",
	"psd/internal/chaos.Injector.Arm":       "starts a fault phase; the chaos e2e and robustness tests arm faults mid-run",
	"psd/internal/chaos.Injector.Disarm":    "ends a fault phase, so the same tests can assert recovery",
	"psd/internal/chaos.Injector.Counts":    "the fault tally chaos, loadgen and httpsrv tests check the schedule against",
	"psd/internal/chaos.Counts":             "the tally's type; its fields are what those tests read",
}

func TestNoTestOnlyAPI(t *testing.T) {
	s, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range s.check(testOnlyAllowlist) {
		t.Error(msg)
	}
}

// writeModule lays out a throwaway module under dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSurfaceScannerRules pins the scanner's reach rules on a throwaway
// module.
func TestSurfaceScannerRules(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"root.go": `package m

import "m/internal/api"

// Exposed is API: its exported methods and fields are roots.
type Exposed = api.Exposed
`,
		"cmd/app/main.go": `package main

import (
	"encoding/json"
	"fmt"

	q "m/internal/p"
)

func main() {
	var cfg q.Config
	fmt.Println(cfg.Estimator, q.Used(), q.Lit{Estimator: 1}.Estimator)
	q.T{}.Helper()
	var c q.Caller = q.Impl{}
	c.Call()
	var g q.Gate = q.Marked{}
	if m, ok := g.(q.Marker); ok {
		_ = m
	}
	fmt.Println(q.Named(1))
	var w q.Writes
	w.Seen = 1
	w.Unread = 2
	fmt.Println(w.Seen)
	b, _ := json.Marshal(q.Doc{Field: 1})
	fmt.Println(string(b))
	q.Hooked()
	var o q.Outer
	fmt.Println(o.X)
}
`,
		"internal/api/api.go": `package api

type Exposed struct{ Public int }

func (Exposed) Method() {}

func (Exposed) unexported() {}
`,
		"internal/p/p.go": `package p

// Estimator shares its name with a field; only field uses exist.
type Estimator int

type Config struct{ Estimator int }

type Lit struct{ Estimator int }

// I's method name Helper is not a reference to func Helper.
type I interface{ Helper() }

func Helper() {}

type T struct{}

func (T) Helper() { reached() }

func reached() { Indirect() }

func Indirect() {}

type Asserted struct{}

func (Asserted) Helper() {}

var _ I = Asserted{}

func Used() int { return len(byKey) }

var byKey = map[Kind]int{KindA: 1}

type Kind int

const KindA Kind = 0

const Allowed = 1

func init() { fromInit() }

func fromInit() { InitOnly() }

func InitOnly() {}

// Caller is called only through the interface.
type Caller interface{ Call() }

type Impl struct{}

func (Impl) Call() {}
func (Impl) Extra() {}

// Gate is what a program holds; the marker Marker is asserted from it.
type Gate interface{ Admit() }

type Marker interface{ Marked() }

type Marked struct{}

func (Marked) Admit() {}
func (Marked) Marked() {}

// Named's String is reached only through fmt.
type Named int

func (Named) String() string { return "named" }

type Writes struct {
	Seen   int
	Unread int
	_      [8]byte
}

type Doc struct {
	Field int ` + "`json:\"field\"`" + `
	Other int ` + "`json:\"other\"`" + `
}

func dead() {}

func Hooked() {}

func hook() {}

// Outer's embedded Inner is read by the selection of a promoted field.
type Inner struct{ X int }

type Outer struct{ Inner }
`,
		"internal/p/export_test.go": `package p

var Hook = hook
`,
		"internal/p/p_test.go": `package p

func TestOnly() { _ = Estimator(0) }
`,
		"internal/.hidden/h.go":    "package hidden\n\nfunc Hidden() {}\n",
		"internal/p/testdata/d.go": "package d\n\nfunc Data() {}\n",
	})
	s, err := scanSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s.check(map[string]string{"m/internal/p.Allowed": "pinned"})
	want := []string{
		"internal/api/api.go:7: m/internal/api.Exposed.unexported is reached by no program",
		"internal/p/p.go:4: m/internal/p.Estimator is reached by no program",
		"internal/p/p.go:11: m/internal/p.I is reached by no program",
		"internal/p/p.go:13: m/internal/p.Helper is reached by no program",
		"internal/p/p.go:23: m/internal/p.Asserted is reached by no program",
		"internal/p/p.go:51: m/internal/p.Impl.Extra is reached by no program",
		"internal/p/p.go:70: m/internal/p.Writes.Unread is written but never read",
		"internal/p/p.go:79: m/internal/p.dead is reached by no program",
		"internal/p/p.go:83: m/internal/p.hook is reached by no program",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan of the throwaway module:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An allowlist entry that is missing, or that a root reaches, fails.
	got = s.check(map[string]string{
		"m/internal/p.Allowed": "pinned", "m/internal/p.Gone": "x", "m/internal/p.Used": "x",
		"m/internal/api.Exposed.Method": "x", "m/internal/p.Impl.Call": "x",
		"m/internal/p.Estimator": "x", "m/internal/p.Helper": "x", "m/internal/p.Asserted": "x", "m/internal/p.I": "x",
		"m/internal/api.Exposed.unexported": "x", "m/internal/p.Impl.Extra": "x", "m/internal/p.Writes.Unread": "x",
		"m/internal/p.dead": "x", "m/internal/p.hook": "x",
	})
	want = []string{
		"allowlist entry m/internal/api.Exposed.Method is reached by a program; drop it",
		"allowlist entry m/internal/p.Gone is not declared",
		"allowlist entry m/internal/p.Impl.Call is reached by a program; drop it",
		"allowlist entry m/internal/p.Used is reached by a program; drop it",
		// Allowlisting a type does not reach its methods.
		"internal/p/p.go:25: m/internal/p.Asserted.Helper is reached by no program",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("allowlist checks:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceNode is one declaration the scan tracks: a package-level name,
// a method of a named type, or a field of a package-level struct type.
type surfaceNode struct {
	key    string // "path.Name", "path.Type.Method", "path.Type.Field"
	file   string // relative to the module root
	line   int
	owner  types.Object // the declaring type of a method or field
	exempt bool         // a field encoding/json reads
	root   bool
	report bool // a finding when unreached (declared outside package main)

	uses    []types.Object     // declarations and fields read, methods selected
	writes  []types.Object     // fields assigned
	convs   []surfaceConv      // values converted to an interface
	asserts []*types.Interface // interfaces asserted to
}

type surfaceConv struct {
	from types.Type
	to   *types.Interface
}

type surface struct {
	nodes map[types.Object]*surfaceNode
	byKey map[string]types.Object
}

// scanSurface type-checks every non-test .go file of the module rooted
// at root, skipping testdata/ and hidden directories, and records each
// declaration's references.
func scanSurface(root string) (*surface, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", root)
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg = module + "/" + filepath.ToSlash(rel)
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check on demand in import order: module paths from source,
	// the standard library from its export data. One `go list -export`
	// locates (building if need be) the export data of every standard
	// package imported; importer.Default would run one per package.
	stdPaths := map[string]bool{}
	for _, fs := range files {
		for _, f := range fs {
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); files[p] == nil {
					stdPaths[p] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range stdPaths {
		args = append(args, p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok {
			exports[p] = file
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var imp importerFunc
	var firstErr error
	imp = func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{Importer: imp, Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}}
		p, _ := conf.Check(path, fset, files[path], info)
		checked[path], infos[path] = p, info
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	s := &surface{nodes: map[types.Object]*surfaceNode{}, byKey: map[string]types.Object{}}
	add := func(obj types.Object, key string, main bool) *surfaceNode {
		pos := fset.Position(obj.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		n := &surfaceNode{key: key, file: filepath.ToSlash(rel), line: pos.Line, root: main, report: !main}
		s.nodes[obj] = n
		s.byKey[key] = obj
		return n
	}
	// addFields declares the fields of a package-level struct type,
	// nested anonymous structs included.
	var addFields func(owner types.Object, prefix string, st *types.Struct, main bool)
	addFields = func(owner types.Object, prefix string, st *types.Struct, main bool) {
		json := false
		for i := 0; i < st.NumFields(); i++ {
			if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
				json = true
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			n := add(f, prefix+"."+f.Name(), main)
			n.owner, n.exempt = owner, json
			if inner, ok := f.Type().(*types.Struct); ok {
				addFields(owner, n.key, inner, main)
			}
		}
	}

	for _, path := range paths {
		pkg, info := checked[path], infos[path]
		main := pkg.Name() == "main"
		for _, f := range files[path] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					var n *surfaceNode
					switch {
					case d.Recv != nil:
						recv := namedOf(fn.Type().(*types.Signature).Recv().Type())
						n = add(fn, path+"."+recv.Obj().Name()+"."+fn.Name(), main)
						n.owner = recv.Obj()
					case d.Name.Name == "init":
						n = add(fn, fmt.Sprintf("%s.init@%d", path, d.Pos()), true)
						n.report = false
					default:
						n = add(fn, path+"."+fn.Name(), main || (pkg.Path() == module && fn.Exported()))
					}
					w := &surfaceWalker{info: info, n: n, sig: fn.Type().(*types.Signature)}
					ast.Walk(w, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[sp.Name]
							n := add(obj, path+"."+obj.Name(), main || (pkg.Path() == module && obj.Exported()))
							if st, ok := obj.Type().Underlying().(*types.Struct); ok && !obj.(*types.TypeName).IsAlias() {
								addFields(obj, n.key, st, main)
							}
							w := &surfaceWalker{info: info, n: n}
							if sp.TypeParams != nil {
								ast.Walk(w, sp.TypeParams)
							}
							ast.Walk(w, sp.Type)
						case *ast.ValueSpec:
							// var a, b = f(): both names get every reference.
							w := &surfaceWalker{info: info, n: &surfaceNode{}}
							ast.Walk(w, sp)
							for _, id := range sp.Names {
								if id.Name == "_" {
									continue
								}
								obj := info.Defs[id]
								n := add(obj, path+"."+obj.Name(), main || (pkg.Path() == module && obj.Exported()))
								n.uses, n.writes, n.convs, n.asserts = w.n.uses, w.n.writes, w.n.convs, w.n.asserts
							}
						}
					}
				}
			}
		}
	}
	if p := checked[module]; p != nil {
		s.exposeRoot(p)
	}
	return s, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exposeRoot marks as roots the exported declarations of the root
// package and the exported methods and fields of every module type its
// API exposes, followed through aliases, field types and signatures.
func (s *surface) exposeRoot(pkg *types.Package) {
	seen := map[types.Type]bool{}
	var expose func(t types.Type)
	rootOf := func(obj types.Object) {
		if n := s.nodes[obj]; n != nil {
			n.root = true
		}
	}
	expose = func(t types.Type) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				expose(t.TypeArgs().At(i))
			}
			o := t.Origin()
			if s.nodes[o.Obj()] == nil {
				return // not a module type
			}
			rootOf(o.Obj())
			for i := 0; i < o.NumMethods(); i++ {
				if m := o.Method(i); m.Exported() {
					rootOf(m)
					expose(m.Type())
				}
			}
			expose(o.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				f := t.Field(i)
				if f.Exported() {
					rootOf(f)
				}
				if f.Exported() || f.Embedded() {
					expose(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				expose(t.Method(i).Type())
			}
		case *types.Signature:
			expose(t.Params())
			expose(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				expose(t.At(i).Type())
			}
		case *types.Pointer:
			expose(t.Elem())
		case *types.Slice:
			expose(t.Elem())
		case *types.Array:
			expose(t.Elem())
		case *types.Chan:
			expose(t.Elem())
		case *types.Map:
			expose(t.Key())
			expose(t.Elem())
		}
	}
	for _, name := range pkg.Scope().Names() {
		if obj := pkg.Scope().Lookup(name); obj.Exported() {
			expose(obj.Type())
		}
	}
}

// namedOf strips pointers and aliases down to a named type (nil if none).
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// surfaceWalker records one declaration's references into n.
type surfaceWalker struct {
	info *types.Info
	n    *surfaceNode
	sig  *types.Signature // the enclosing function, for return statements
}

func (w *surfaceWalker) typeOf(e ast.Expr) types.Type { return w.info.Types[e].Type }

// conv records the conversion of e's value to type to, if to is an
// interface and e's type is not.
func (w *surfaceWalker) conv(to types.Type, e ast.Expr) {
	from := w.typeOf(e)
	w.convType(to, from)
}

func (w *surfaceWalker) convType(to, from types.Type) {
	if to == nil || from == nil {
		return
	}
	if _, ok := types.Unalias(to).(*types.TypeParam); ok {
		return // instantiation records these
	}
	iface, ok := to.Underlying().(*types.Interface)
	if !ok || types.IsInterface(from) {
		return
	}
	if b, ok := from.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	w.n.convs = append(w.n.convs, surfaceConv{from: from, to: iface})
}

// convAll converts the values to the types, spreading one multi-value
// call over several types.
func (w *surfaceWalker) convAll(to []types.Type, values []ast.Expr) {
	if len(values) == 1 && len(to) > 1 {
		if tup, ok := w.typeOf(values[0]).(*types.Tuple); ok {
			for i := 0; i < tup.Len() && i < len(to); i++ {
				w.convType(to[i], tup.At(i).Type())
			}
		}
		return
	}
	for i, v := range values {
		if i < len(to) {
			w.conv(to[i], v)
		}
	}
}

// selectorPath records the embedded fields a selection passes through
// as read.
func (w *surfaceWalker) selectorPath(sel *types.Selection) {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefStruct(t)
		if !ok {
			return
		}
		f := st.Field(i)
		w.n.uses = append(w.n.uses, f.Origin())
		t = f.Type()
	}
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// write records the assignment target e: a field selector is written,
// its base read; anything else is walked as a read.
func (w *surfaceWalker) write(e ast.Expr) {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s := w.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			w.selectorPath(s)
			w.n.writes = append(w.n.writes, s.Obj().(*types.Var).Origin())
			ast.Walk(w, sel.X)
			return
		}
	}
	ast.Walk(w, e)
}

func (w *surfaceWalker) Visit(node ast.Node) ast.Visitor {
	switch x := node.(type) {
	case *ast.Ident:
		obj := w.info.Uses[x]
		switch o := obj.(type) {
		case nil, *types.PkgName, *types.Builtin, *types.Nil, *types.Label:
			return nil
		case *types.Var:
			if !o.IsField() && o.Parent() != o.Pkg().Scope() {
				return nil // a local
			}
			obj = o.Origin()
		case *types.Func:
			obj = o.Origin()
		}
		w.n.uses = append(w.n.uses, obj)
		if inst, ok := w.info.Instances[x]; ok {
			var tps *types.TypeParamList
			switch o := obj.(type) {
			case *types.Func:
				tps = o.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				if n, ok := o.Type().(*types.Named); ok {
					tps = n.TypeParams()
				}
			}
			for i := 0; tps != nil && i < tps.Len() && i < inst.TypeArgs.Len(); i++ {
				w.convType(tps.At(i).Constraint(), inst.TypeArgs.At(i))
			}
		}
		return nil
	case *ast.SelectorExpr:
		if sel := w.info.Selections[x]; sel != nil {
			w.selectorPath(sel)
		}
	case *ast.FuncLit:
		sig, _ := w.typeOf(x).(*types.Signature)
		return &surfaceWalker{info: w.info, n: w.n, sig: sig}
	case *ast.AssignStmt:
		for _, l := range x.Lhs {
			w.write(l)
		}
		for _, r := range x.Rhs {
			ast.Walk(w, r)
		}
		if x.Tok == token.ASSIGN {
			to := make([]types.Type, len(x.Lhs))
			for i, l := range x.Lhs {
				to[i] = w.typeOf(l)
			}
			w.convAll(to, x.Rhs)
		}
		return nil
	case *ast.IncDecStmt:
		w.write(x.X)
		return nil
	case *ast.CompositeLit:
		if x.Type != nil {
			ast.Walk(w, x.Type)
		}
		t := w.typeOf(x)
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		for i, e := range x.Elts {
			kv, keyed := e.(*ast.KeyValueExpr)
			switch u := t.Underlying().(type) {
			case *types.Struct:
				f := u.Field(i)
				v := e
				if keyed {
					f = w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					v = kv.Value
				}
				w.n.writes = append(w.n.writes, f.Origin())
				w.conv(f.Type(), v)
				ast.Walk(w, v)
				continue
			case *types.Map:
				if keyed {
					w.conv(u.Key(), kv.Key)
					w.conv(u.Elem(), kv.Value)
				}
			case *types.Slice:
				w.conv(u.Elem(), elemValue(e))
			case *types.Array:
				w.conv(u.Elem(), elemValue(e))
			}
			ast.Walk(w, e)
		}
		return nil
	case *ast.CallExpr:
		tv := w.info.Types[x.Fun]
		switch {
		case tv.IsType():
			if len(x.Args) == 1 {
				w.conv(tv.Type, x.Args[0])
			}
		case tv.IsBuiltin():
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && !x.Ellipsis.IsValid() {
				if s, ok := w.typeOf(x).Underlying().(*types.Slice); ok {
					for _, a := range x.Args[1:] {
						w.conv(s.Elem(), a)
					}
				}
			}
		default:
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			to := make([]types.Type, 0, len(x.Args))
			for i := 0; i < params.Len(); i++ {
				to = append(to, params.At(i).Type())
			}
			if sig.Variadic() && !x.Ellipsis.IsValid() && len(to) > 0 {
				elem := to[len(to)-1].(*types.Slice).Elem()
				to = to[:len(to)-1]
				for len(to) < len(x.Args) {
					to = append(to, elem)
				}
			}
			w.convAll(to, x.Args)
		}
	case *ast.ReturnStmt:
		if w.sig != nil {
			res := w.sig.Results()
			to := make([]types.Type, res.Len())
			for i := range to {
				to[i] = res.At(i).Type()
			}
			w.convAll(to, x.Results)
		}
	case *ast.SendStmt:
		if ch, ok := w.typeOf(x.Chan).Underlying().(*types.Chan); ok {
			w.conv(ch.Elem(), x.Value)
		}
	case *ast.ValueSpec:
		if x.Type != nil {
			to := make([]types.Type, len(x.Names))
			for i := range to {
				to[i] = w.typeOf(x.Type)
			}
			w.convAll(to, x.Values)
		}
	case *ast.BinaryExpr:
		if x.Op == token.EQL || x.Op == token.NEQ {
			w.conv(w.typeOf(x.X), x.Y)
			w.conv(w.typeOf(x.Y), x.X)
		}
	case *ast.TypeAssertExpr:
		if x.Type != nil {
			w.assert(w.typeOf(x.Type))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				w.assert(w.typeOf(e))
			}
		}
	}
	return w
}

func (w *surfaceWalker) assert(t types.Type) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		w.n.asserts = append(w.n.asserts, iface)
	}
}

func elemValue(e ast.Expr) ast.Expr {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return e
}

// dynamicMethods are the methods fmt and encoding/json look up on a
// value handed to them as an empty interface.
var dynamicMethods = []string{"String", "Error", "Format", "GoString", "MarshalJSON", "MarshalText", "UnmarshalJSON", "UnmarshalText"}

// reach returns every object reached from the roots and extra to a
// fixpoint, and the fields reached code writes.
func (s *surface) reach(extra []types.Object) (seen, written map[types.Object]bool) {
	seen, written = map[types.Object]bool{}, map[types.Object]bool{}
	var stack []types.Object
	push := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			stack = append(stack, o)
		}
	}
	for o, n := range s.nodes {
		if n.root {
			push(o)
		}
	}
	for _, o := range extra {
		push(o)
	}
	// Types converted to any interface, and interfaces asserted to.
	var dynamic []types.Type
	dynSeen := map[string]bool{}
	var asserted []*types.Interface
	method := func(t types.Type, pkg *types.Package, name string) {
		obj, idx, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		push(fn.Origin())
		// The embedded fields the method is promoted through.
		for _, j := range idx[:len(idx)-1] {
			st, ok := derefStruct(t)
			if !ok {
				return
			}
			push(st.Field(j).Origin())
			t = st.Field(j).Type()
		}
	}
	methodsOf := func(t types.Type, iface *types.Interface) {
		if iface.NumMethods() == 0 {
			for _, name := range dynamicMethods {
				method(t, nil, name)
			}
		}
		for i := 0; i < iface.NumMethods(); i++ {
			method(t, iface.Method(i).Pkg(), iface.Method(i).Name())
		}
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := s.nodes[o]
		if n == nil {
			continue
		}
		for _, u := range n.uses {
			push(u)
		}
		for _, f := range n.writes {
			written[f] = true
		}
		for _, c := range n.convs {
			methodsOf(c.from, c.to)
			if k := types.TypeString(c.from, nil); !dynSeen[k] {
				dynSeen[k] = true
				dynamic = append(dynamic, c.from)
				for _, a := range asserted {
					if types.Implements(c.from, a) {
						methodsOf(c.from, a)
					}
				}
			}
		}
		for _, a := range n.asserts {
			asserted = append(asserted, a)
			for _, t := range dynamic {
				if types.Implements(t, a) {
					methodsOf(t, a)
				}
			}
		}
	}
	return seen, written
}

// check returns one message per declaration that neither a root nor an
// allowlist entry reaches, and per allowlist entry that is not declared
// or that a root already reaches.
func (s *surface) check(allow map[string]string) []string {
	var msgs []string
	fromRoots, _ := s.reach(nil)
	var allowed []string
	for k := range allow {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	var extra []types.Object
	for _, k := range allowed {
		obj := s.byKey[k]
		switch {
		case obj == nil:
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s is not declared", k))
		case fromRoots[obj]:
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s is reached by a program; drop it", k))
		default:
			extra = append(extra, obj)
			// An allowlisted struct is an oracle's payload: its fields are
			// read by the tests it exists for.
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				if _, isType := obj.(*types.TypeName); isType {
					for i := 0; i < st.NumFields(); i++ {
						extra = append(extra, st.Field(i))
					}
				}
			}
		}
	}
	seen, written := s.reach(extra)
	var dead []types.Object
	for o, n := range s.nodes {
		if n.report && !seen[o] && !n.exempt && (n.owner == nil || seen[n.owner]) {
			dead = append(dead, o)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := s.nodes[dead[i]], s.nodes[dead[j]]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	for _, o := range dead {
		n := s.nodes[o]
		what := "is reached by no program"
		if written[o] {
			what = "is written but never read"
		}
		msgs = append(msgs, fmt.Sprintf("%s:%d: %s %s", n.file, n.line, n.key, what))
	}
	return msgs
}
