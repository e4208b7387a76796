package psd

// TestNoTestOnlyAPI keeps internal/ free of exported code that only tests
// reach. internal/ cannot be imported from outside the module, so an
// exported identifier there is functionality only if a program reaches
// it: a package main under cmd/, bench/ or examples/, or the exported API
// of this root package. The scan is syntactic (go/parser and go/ast, no
// type checking), so its rules lean towards keeping code alive:
//
//   - a method belongs to its receiver type: reaching the type reaches
//     every method, and a method body's references count for the type;
//   - a selector's name counts only when its left side is an imported
//     package (core.PSD does, cfg.Estimator does not);
//   - struct field names, interface method names and the keys of struct
//     literals are not references;
//   - `var _ I = T{}` assertions are not roots; init functions are.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported internal/ identifiers that no
// program reaches but that stay, each for the reason given.
var testOnlyAllowlist = map[string]string{
	"psd/internal/queueing.ExpectedSlowdown": "Theorem 1 for a whole distribution; core's Eq. 18 test checks against it",
	"psd/internal/queueing.PKWait":           "Pollaczek–Khinchine mean wait; the simulator's single-class M/G/1 test checks against it",
	"psd/internal/queueing.SlowdownConstant": "E[X²]·E[1/X]/2; dist's Bounded Pareto tests check the law's moments against it",
	"psd/internal/queueing.MD1Slowdown":      "M/D/1 closed form; the simulator's deterministic-size test checks against it",
	"psd/internal/queueing.MM1Wait":          "M/M/1 closed form; queueing's tests check PKWait against it",
	"psd/internal/core.PacketizedSlowdown":   "the slowdown PacketizedPSD targets; simsrv's packetized tests check the allocator against it",
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

// TestSurfaceScannerRules pins the scanner's reference rules on a
// throwaway module.
func TestSurfaceScannerRules(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"cmd/app/main.go": `package main

import (
	"fmt"

	q "m/internal/p"
)

func main() {
	var cfg q.Config
	fmt.Println(cfg.Estimator, q.Used(), q.Lit{Estimator: 1}, q.T{})
}
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
`,
		"internal/p/p_test.go": `package p

func TestOnly() { _ = Estimator(0) }
`,
		"internal/.hidden/h.go":    "package hidden\n\nfunc Hidden() {}\n",
		"internal/p/testdata/d.go": "package d\n\nfunc Data() {}\n",
	}
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := scanSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s.check(map[string]string{"m/internal/p.Allowed": "pinned"})
	want := []string{
		"internal/p/p.go:4: m/internal/p.Estimator is reached by no program",
		"internal/p/p.go:11: m/internal/p.I is reached by no program",
		"internal/p/p.go:13: m/internal/p.Helper is reached by no program",
		"internal/p/p.go:23: m/internal/p.Asserted is reached by no program",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan of the throwaway module:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An allowlist entry that is missing, or that a root reaches, fails.
	got = s.check(map[string]string{
		"m/internal/p.Allowed": "pinned", "m/internal/p.Gone": "x", "m/internal/p.Used": "x",
		"m/internal/p.Estimator": "x", "m/internal/p.Helper": "x", "m/internal/p.Asserted": "x", "m/internal/p.I": "x",
	})
	want = []string{
		"allowlist entry m/internal/p.Gone is not declared",
		"allowlist entry m/internal/p.Used is reached by a program; drop it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("allowlist checks:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceDecl is one package-level identifier ("path.Name"); methods are
// folded into their receiver type's decl.
type surfaceDecl struct {
	pos      string // file:line, relative to the module root
	internal bool
	exported bool
	root     bool
	refs     map[string]bool
}

type surface struct {
	decls map[string]*surfaceDecl
}

// scanSurface parses every non-test .go file of the module rooted at
// root, skipping testdata/ and hidden directories.
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
	type parsed struct {
		file *ast.File
		pkg  string
		rel  string
	}
	var files []parsed
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
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg = module + "/" + dir
		}
		files = append(files, parsed{f, pkg, filepath.ToSlash(rel)})
		return nil
	})
	if err != nil {
		return nil, err
	}

	s := &surface{decls: map[string]*surfaceDecl{}}
	// Pass 1: declare every package-level name.
	declare := func(pkg, rel string, id *ast.Ident, root bool) {
		if id.Name == "_" {
			return
		}
		key := pkg + "." + id.Name
		if s.decls[key] != nil {
			return
		}
		s.decls[key] = &surfaceDecl{
			pos:      fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line),
			internal: strings.HasPrefix(pkg, module+"/internal/"),
			exported: id.IsExported(),
			root:     root,
			refs:     map[string]bool{},
		}
	}
	for _, pf := range files {
		isMain := pf.file.Name.Name == "main"
		isRoot := pf.pkg == module
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || d.Name.Name == "init" {
					continue
				}
				declare(pf.pkg, pf.rel, d.Name, isMain || (isRoot && d.Name.IsExported()))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						declare(pf.pkg, pf.rel, sp.Name, isMain || (isRoot && sp.Name.IsExported()))
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							declare(pf.pkg, pf.rel, n, isMain || (isRoot && n.IsExported()))
						}
					}
				}
			}
		}
	}
	// Pass 2: record each decl's references. Every init body is a root of
	// its own (a package may have several).
	initN := 0
	for _, pf := range files {
		imports := map[string]string{}
		for _, im := range pf.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		refsOf := func(name string) map[string]bool {
			if d := s.decls[pf.pkg+"."+name]; d != nil {
				return d.refs
			}
			return map[string]bool{}
		}
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				var refs map[string]bool
				switch {
				case d.Recv != nil:
					refs = refsOf(receiverType(d.Recv.List[0].Type))
				case d.Name.Name == "init":
					initN++
					key := fmt.Sprintf("%s.init#%d", pf.pkg, initN)
					s.decls[key] = &surfaceDecl{root: true, refs: map[string]bool{}}
					refs = s.decls[key].refs
				default:
					refs = refsOf(d.Name.Name)
				}
				collectRefs(refs, pf.pkg, imports, s.decls, d.Recv, d.Type, d.Body)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						collectRefs(refsOf(sp.Name.Name), pf.pkg, imports, s.decls, sp.TypeParams, sp.Type)
					case *ast.ValueSpec:
						// var a, b = f(): both names get every reference.
						refs := map[string]bool{}
						if sp.Type != nil {
							collectRefs(refs, pf.pkg, imports, s.decls, sp.Type)
						}
						for _, v := range sp.Values {
							collectRefs(refs, pf.pkg, imports, s.decls, v)
						}
						for _, n := range sp.Names {
							if d := s.decls[pf.pkg+"."+n.Name]; d != nil {
								for r := range refs {
									d.refs[r] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return s, nil
}

// receiverType is the base type name of a method receiver (*T, T[P]).
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectRefs adds to refs every package-level identifier the nodes
// reference, under the rules in the file comment.
func collectRefs(refs map[string]bool, pkg string, imports map[string]string, decls map[string]*surfaceDecl, nodes ...ast.Node) {
	var visit func(n ast.Node) bool
	walk := func(n ast.Node) {
		if n != nil && !isNilNode(n) {
			ast.Inspect(n, visit)
		}
	}
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if decls[pkg+"."+x.Name] != nil {
				refs[pkg+"."+x.Name] = true
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok && decls[pkg+"."+id.Name] == nil {
					refs[p+"."+x.Sel.Name] = true
					return false
				}
			}
			walk(x.X)
			return false
		case *ast.FieldList:
			for _, f := range x.List {
				walk(f.Type) // not f.Names: those are definitions
			}
			return false
		case *ast.CompositeLit:
			walk(x.Type)
			_, isMap := x.Type.(*ast.MapType)
			_, isArray := x.Type.(*ast.ArrayType)
			for _, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if _, bare := kv.Key.(*ast.Ident); !bare || isMap || isArray {
						walk(kv.Key)
					}
					walk(kv.Value)
				} else {
					walk(e)
				}
			}
			return false
		}
		return true
	}
	for _, n := range nodes {
		walk(n)
	}
}

// isNilNode reports a typed nil inside an ast.Node interface (an absent
// receiver, type parameter list or function body).
func isNilNode(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FieldList:
		return x == nil
	case *ast.BlockStmt:
		return x == nil
	}
	return false
}

// check returns one message per exported internal/ identifier that
// neither a root nor an allowlist entry reaches, and per allowlist entry
// that is not declared or that a root already reaches.
func (s *surface) check(allow map[string]string) []string {
	reach := func(extra []string) map[string]bool {
		seen := map[string]bool{}
		var stack []string
		for k, d := range s.decls {
			if d.root {
				stack = append(stack, k)
			}
		}
		stack = append(stack, extra...)
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[k] {
				continue
			}
			seen[k] = true
			if d := s.decls[k]; d != nil {
				for r := range d.refs {
					if !seen[r] {
						stack = append(stack, r)
					}
				}
			}
		}
		return seen
	}
	var msgs []string
	fromRoots := reach(nil)
	var allowed []string
	for k := range allow {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	var extra []string
	for _, k := range allowed {
		switch {
		case s.decls[k] == nil:
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s is not declared", k))
		case fromRoots[k]:
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s is reached by a program; drop it", k))
		default:
			extra = append(extra, k)
		}
	}
	seen := reach(extra)
	var dead []string
	for k, d := range s.decls {
		if d.internal && d.exported && !seen[k] {
			dead = append(dead, k)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := s.decls[dead[i]].pos, s.decls[dead[j]].pos
		fa, la, _ := strings.Cut(a, ":")
		fb, lb, _ := strings.Cut(b, ":")
		if fa != fb {
			return fa < fb
		}
		na, _ := strconv.Atoi(la)
		nb, _ := strconv.Atoi(lb)
		return na < nb
	})
	for _, k := range dead {
		msgs = append(msgs, fmt.Sprintf("%s: %s is reached by no program", s.decls[k].pos, k))
	}
	return msgs
}
