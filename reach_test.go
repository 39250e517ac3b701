package score_test

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyNames is the committed list of names declared under internal/
// that no program uses: one section for names only tests use, one for
// names only bench/ uses. TestReach holds it equal to what the scan finds.
const testOnlyNames = "testdata/test_only_names.txt"

// The tag sets a program of this module is built with. A name counts as
// used when a non-test file of either set uses it.
var reachTagSets = [][]string{nil, {"scorecheck"}}

const (
	usedByModule = 1 << iota // a non-test file of the main module
	usedByBench              // a non-test file under bench/
)

// TestReach holds testdata/test_only_names.txt equal to the scan. The scan
// type-checks every non-test file of the main module and of bench/, under
// each tag set, and counts the uses of every package-level name, method
// and untagged, non-embedded struct field declared under internal/. A name
// with no use outside bench/ must be listed: in the test-only section when
// nothing but tests uses it, in the bench section when bench/ does. The
// file is a two-way ratchet: a found name missing from it fails, and so
// does a listed name the scan no longer finds.
//
// A failure has three answers: delete the name (and the tests of only
// it), move it into its package's export_test.go or another _test.go file,
// or — when tests in another package need it, or a ROADMAP item deletes
// it — add its line with that reason.
func TestReach(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("test must run from the module root: %v", err)
	}
	testOnly, benchOnly := scanModule(t)
	want, err := readNameFile(testOnlyNames)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, sec := range []struct {
		name  string
		found []string
	}{{"test-only", testOnly}, {"bench", benchOnly}} {
		listed := want[sec.name]
		var add, drop []string
		for _, k := range sec.found {
			if _, ok := listed[k]; !ok {
				add = append(add, k)
			}
		}
		found := map[string]bool{}
		for _, k := range sec.found {
			found[k] = true
		}
		for k, reason := range listed {
			if !found[k] {
				drop = append(drop, k)
			} else if reason == "" {
				msgs = append(msgs, fmt.Sprintf("[%s] %s has no reason", sec.name, k))
			}
		}
		sort.Strings(drop)
		if len(add) > 0 {
			msgs = append(msgs, fmt.Sprintf("add to [%s], each with its reason, or delete the name or move it into its package's test files:\n\t%s", sec.name, strings.Join(add, "\n\t")))
		}
		if len(drop) > 0 {
			msgs = append(msgs, fmt.Sprintf("drop from [%s]; the scan no longer finds them there:\n\t%s", sec.name, strings.Join(drop, "\n\t")))
		}
	}
	if len(msgs) > 0 {
		t.Errorf("%s does not match the scan:\n%s", testOnlyNames, strings.Join(msgs, "\n"))
	}
}

// readNameFile parses the name file: "[section]" headers, then one
// "name reason…" line per name; '#' starts a comment line.
func readNameFile(path string) (map[string]map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]string{}
	var sec map[string]string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			name := line[1 : len(line)-1]
			if out[name] == nil {
				out[name] = map[string]string{}
			}
			sec = out[name]
		case sec == nil:
			return nil, fmt.Errorf("%s:%d: name before any section", path, n)
		default:
			name, reason, _ := strings.Cut(line, " ")
			if _, dup := sec[name]; dup {
				return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
			}
			sec[name] = strings.TrimSpace(reason)
		}
	}
	return out, sc.Err()
}

// listedPkg is what the scan reads of `go list -json`.
type listedPkg struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Imports    []string
	Export     string
}

func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// stdExports returns the export data file of each named standard
// package, which `go list -export` builds or finds in the build cache.
func stdExports(paths []string) (map[string]string, error) {
	listed, err := goList(".", append([]string{"-export", "-json=ImportPath,Export"}, paths...)...)
	if err != nil {
		return nil, err
	}
	export := map[string]string{}
	for _, p := range listed {
		export[p.ImportPath] = p.Export
	}
	return export, nil
}

// stdImporter loads standard packages from their export data.
func stdImporter(fset *token.FileSet, export map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

// checkedPkg is one package of one tag set, type-checked from source.
type checkedPkg struct {
	rel   string // module-relative directory: "internal/core", "bench/run", "."
	bench bool
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// sourceImporter type-checks the module's packages from source on first
// import and hands every other path to std.
type sourceImporter struct {
	fset    *token.FileSet
	std     types.Importer
	listed  map[string]listedPkg
	parse   func(file string) (*ast.File, error)
	checked map[string]*checkedPkg
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	l, ok := im.listed[path]
	if !ok {
		return im.std.Import(path)
	}
	if c := im.checked[path]; c != nil {
		return c.pkg, nil
	}
	c := &checkedPkg{
		rel:   relPath(path),
		bench: strings.HasPrefix(path, modulePath+"/bench/"),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, name := range l.GoFiles {
		f, err := im.parse(filepath.Join(l.Dir, name))
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	im.checked[path] = c
	return pkg, nil
}

// where says whose use a use in p is.
func (p *checkedPkg) where() int {
	if p.bench {
		return usedByBench
	}
	return usedByModule
}

func relPath(importPath string) string {
	if rel, ok := strings.CutPrefix(importPath, modulePath+"/"); ok {
		return rel
	}
	return "."
}

// checkBuild type-checks one build: the listed packages from source, in
// the order listed, and the standard packages they import from std.
func checkBuild(fset *token.FileSet, std types.Importer, stdPaths []string, listed []listedPkg, parse func(string) (*ast.File, error)) ([]*checkedPkg, []*types.Package, error) {
	im := &sourceImporter{fset: fset, std: std, listed: map[string]listedPkg{}, parse: parse, checked: map[string]*checkedPkg{}}
	for _, p := range listed {
		im.listed[p.ImportPath] = p
	}
	var pkgs []*checkedPkg
	for _, p := range listed {
		if _, err := im.Import(p.ImportPath); err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, im.checked[p.ImportPath])
	}
	var stdPkgs []*types.Package
	for _, path := range stdPaths {
		pkg, err := std.Import(path)
		if err != nil {
			return nil, nil, err
		}
		stdPkgs = append(stdPkgs, pkg)
	}
	return pkgs, stdPkgs, nil
}

// scanModule runs the scan over the main module and bench/ under every
// tag set and returns the names with no non-test use outside bench/,
// split into those nothing uses and those bench/ uses.
func scanModule(t *testing.T) (testOnly, benchOnly []string) {
	t.Helper()
	// builds[i] lists tag set i's packages: the main module's, then bench/'s.
	builds := make([][]listedPkg, len(reachTagSets))
	lists := make([][]listedPkg, 2*len(reachTagSets))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for i, tags := range reachTagSets {
		args := []string{"-json=Dir,ImportPath,GoFiles,Imports", "-tags=" + strings.Join(tags, ","), "./..."}
		for j, dir := range []string{".", "bench"} {
			wg.Add(1)
			go func(k int, dir string) {
				defer wg.Done()
				lists[k], errs[k] = goList(dir, args...)
			}(2*i+j, dir)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stdSet := map[string]bool{}
	for i, list := range lists {
		builds[i/2] = append(builds[i/2], list...)
		for _, p := range list {
			for _, imp := range p.Imports {
				if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") && imp != "C" && imp != "unsafe" {
					stdSet[imp] = true
				}
			}
		}
	}
	var stdPaths []string
	for p := range stdSet {
		stdPaths = append(stdPaths, p)
	}
	sort.Strings(stdPaths)
	export, err := stdExports(stdPaths)
	if err != nil {
		t.Fatal(err)
	}

	// Both builds share the parsed files: type-checking leaves an AST as
	// it found it.
	fset := token.NewFileSet()
	var parseMu sync.Mutex
	parsed := map[string]*ast.File{}
	parse := func(file string) (*ast.File, error) {
		parseMu.Lock()
		defer parseMu.Unlock()
		if f := parsed[file]; f != nil {
			return f, nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed[file] = f
		return f, nil
	}

	scan := newReachScan()
	var scanMu sync.Mutex
	for i := range builds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pkgs, stdPkgs, err := checkBuild(fset, stdImporter(fset, export), stdPaths, builds[i], parse)
			if err != nil {
				errs[i] = err
				return
			}
			scanMu.Lock()
			defer scanMu.Unlock()
			scan.fold(pkgs, stdPkgs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return scan.unused()
}

// reachScan folds the declarations under internal/ and their non-test
// uses over any number of type-checked builds; a name is keyed by its
// module-relative package and its name, "internal/core.Engine.Land".
type reachScan struct {
	declared map[string]bool
	used     map[string]int // usedByModule | usedByBench
}

func newReachScan() *reachScan {
	return &reachScan{declared: map[string]bool{}, used: map[string]int{}}
}

type span struct{ pos, end token.Pos }

// fold adds one build: its packages (module and bench/) and the standard
// packages they import, whose interfaces a module method may implement.
func (s *reachScan) fold(pkgs []*checkedPkg, std []*types.Package) {
	keys := map[types.Object]string{}
	// own holds the spans in which a use of an object is its own: a
	// function's body, a type's spec and its methods' receivers.
	own := map[types.Object][]span{}
	var named []*types.Named
	for _, p := range pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		prefix := p.rel + "."
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					if obj == nil || d.Name.Name == "_" || (d.Recv == nil && d.Name.Name == "init") {
						continue
					}
					own[obj] = append(own[obj], span{d.Pos(), d.End()})
					if d.Recv == nil {
						keys[obj] = prefix + d.Name.Name
						continue
					}
					recv := receiverNamed(obj.(*types.Func))
					keys[obj] = prefix + recv.Obj().Name() + "." + d.Name.Name
					own[recv.Obj()] = append(own[recv.Obj()], span{d.Recv.Pos(), d.Recv.End()})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[sp.Name]
							if sp.Name.Name == "_" {
								continue
							}
							keys[obj] = prefix + sp.Name.Name
							own[obj] = append(own[obj], span{sp.Pos(), sp.End()})
							if n, ok := obj.Type().(*types.Named); ok {
								named = append(named, n)
							}
							member := prefix + sp.Name.Name + "."
							switch typ := sp.Type.(type) {
							case *ast.StructType:
								for _, field := range typ.Fields.List {
									if field.Tag != nil {
										continue // read by reflection
									}
									for _, id := range field.Names { // none when embedded
										if id.Name != "_" {
											keys[p.info.Defs[id]] = member + id.Name
										}
									}
								}
							case *ast.InterfaceType:
								for _, m := range typ.Methods.List {
									for _, id := range m.Names {
										keys[p.info.Defs[id]] = member + id.Name
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								if id.Name != "_" {
									obj := p.info.Defs[id]
									keys[obj] = prefix + id.Name
									own[obj] = append(own[obj], span{sp.Pos(), sp.End()})
								}
							}
						}
					}
				}
			}
		}
	}
	for _, k := range keys {
		s.declared[k] = true
	}

	for _, p := range pkgs {
		where := p.where()
	uses:
		for id, obj := range p.info.Uses {
			obj = originObj(obj)
			k, ok := keys[obj]
			if !ok {
				continue
			}
			for _, sp := range own[obj] {
				if sp.pos <= id.Pos() && id.Pos() < sp.end {
					continue uses
				}
			}
			s.used[k] |= where
		}
	}

	// An interface's methods decide a type assertion or type switch to it:
	// there they are used even when nothing calls them (marker methods).
	for _, p := range pkgs {
		where := p.where()
		asserted := func(e ast.Expr) {
			if it, ok := p.info.TypeOf(e).Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					if k, ok := keys[it.Method(i)]; ok {
						s.used[k] |= where
					}
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type != nil {
						asserted(n.Type)
					}
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							asserted(e)
						}
					}
				}
				return true
			})
		}
	}

	// A method that implements an interface is used through it.
	type iface struct {
		typ   *types.Interface
		where int
	}
	var ifaces []iface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type, where int) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, iface{it, where})
		}
	}
	addIface(types.Universe.Lookup("error").Type(), usedByModule)
	for _, pkg := range std {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type(), usedByModule)
			}
		}
	}
	for _, p := range pkgs {
		where := p.where()
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type(), where)
			}
		}
		for _, tv := range p.info.Types { // interface literals
			if _, ok := tv.Type.(*types.Named); !ok && tv.Type != nil {
				addIface(tv.Type, where)
			}
		}
	}
	for _, n := range named {
		// Implements is unspecified for an uninstantiated generic type, so
		// a generic type's methods count only where they are called.
		if _, ok := n.Underlying().(*types.Interface); ok || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(ptr, it.typ) {
				continue
			}
			for i := 0; i < it.typ.NumMethods(); i++ {
				m := it.typ.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					if k, ok := keys[originObj(sel.Obj())]; ok {
						s.used[k] |= it.where
					}
				}
			}
		}
	}
}

func originObj(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func receiverNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// unused returns, sorted, the declared names no non-test file of the main
// module uses: those nothing uses, and those only bench/ uses.
func (s *reachScan) unused() (testOnly, benchOnly []string) {
	for k := range s.declared {
		switch s.used[k] {
		case 0:
			testOnly = append(testOnly, k)
		case usedByBench:
			benchOnly = append(benchOnly, k)
		}
	}
	sort.Strings(testOnly)
	sort.Strings(benchOnly)
	return testOnly, benchOnly
}

// TestReachRules runs the scan's classifier over a small module held in
// memory: internal/x, and bench/y, which imports it. Each exempt name
// below stays unreported only through its own rule, so removing a rule
// reports its name and fails the test; the control names are reported.
func TestReachRules(t *testing.T) {
	const x, y = modulePath + "/internal/x", modulePath + "/bench/y"
	src := map[string]string{
		"x/a.go": `package x

import "fmt"

// Label's String satisfies fmt.Stringer, which fmt calls by reflection.
type Label int

func (Label) String() string { return "label" }

func Print() { fmt.Println(Label(1)) }

// Box's Get is reached only through the instance Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func Unbox() int { return Box[int]{}.Get() }

// Outer's embedded Inner and tagged Wire are never selected.
type Inner struct{}

type Outer struct {
	Inner
	Wire  int ` + "`json:\"wire\"`" + `
	Plain int
}

var Shared Outer

// Marker's method decides the assertion in IsMarked; nothing calls it.
type Marker interface{ Mark() }

func IsMarked(v any) bool { _, ok := v.(Marker); return ok }

// Checked is used only by the scorecheck build.
func Checked() {}

// Recurse uses only itself.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

func BenchOnly() {}
`,
		"x/check_on.go": `package x

func init() { Checked(); Print(); _ = Unbox(); _ = IsMarked(nil) }
`,
		"y/main.go": `package main

import "` + x + `"

func main() { x.BenchOnly() }
`,
	}
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	for name, code := range src {
		f, err := parser.ParseFile(fset, name, code, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed[name] = f
	}
	parse := func(file string) (*ast.File, error) { return parsed[file], nil }
	export, err := stdExports([]string{"fmt"})
	if err != nil {
		t.Fatal(err)
	}
	std := stdImporter(fset, export)
	scan := newReachScan()
	for _, xFiles := range [][]string{{"a.go"}, {"a.go", "check_on.go"}} { // default, scorecheck
		pkgs, stdPkgs, err := checkBuild(fset, std, []string{"fmt"}, []listedPkg{
			{Dir: "x", ImportPath: x, GoFiles: xFiles},
			{Dir: "y", ImportPath: y, GoFiles: []string{"main.go"}},
		}, parse)
		if err != nil {
			t.Fatal(err)
		}
		scan.fold(pkgs, stdPkgs)
	}
	testOnly, benchOnly := scan.unused()
	wantTestOnly := []string{
		"internal/x.Outer.Plain", // untagged, not embedded, never selected
		"internal/x.Recurse",     // a use inside its own body does not count
		"internal/x.Shared",
	}
	if strings.Join(testOnly, " ") != strings.Join(wantTestOnly, " ") {
		t.Errorf("test-only names = %v, want %v", testOnly, wantTestOnly)
	}
	if want := []string{"internal/x.BenchOnly"}; strings.Join(benchOnly, " ") != strings.Join(want, " ") {
		t.Errorf("bench-only names = %v, want %v", benchOnly, want)
	}
}
