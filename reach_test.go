package pimnet

import (
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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names exported functions and methods under internal/ that
// the resolver cannot credit but that are still reached, each with the
// reason. Keys are "<pkg>.<Recv>.<Name>" or "<pkg>.<Name>", with <pkg> the
// import path below pimnet/internal/.
var reachAllowlist = map[string]string{
	"serve.PointError.Unwrap": "errors.Unwrap method, called by errors.Is and errors.As through an unnamed interface",
	"sim.Engine.QueueCap":     "footprint probe: noc's TestSaturatedRunBoundedPeakHeap bounds the queue's capacity across the package boundary",
	"metrics.Components":      "canonical component order: cxlpim's tests walk it across the package boundary to check every breakdown field",
}

// TestEveryInternalExportIsReached fails when an exported function or method
// under internal/ is reached only by tests. Uses are resolved by type over
// the non-test code of both modules (the root module with cmd/ and
// examples/, and bench/), so a method is not credited because a same-named
// method of another type is called. An export counts as reached when
//
//	(a) a non-test file uses it (a generic's instantiation counts for it);
//	(b) it is a method whose receiver implements an interface holding it,
//	    and that interface appears in non-test code or is declared by an
//	    imported standard-library package (fmt.Stringer, sort.Interface,
//	    json.Marshaler and the like call it for us); or
//	(c) its receiver type is reachable from the root package's exported
//	    API, through aliases, signatures and exported fields, so users of
//	    pimnet can call it.
//
// Delete what is flagged, move it into a _test.go file when it serves as a
// test oracle, or allowlist it with the reason it is reached.
func TestEveryInternalExportIsReached(t *testing.T) {
	prog := loadReachProgram(t)
	var pkgs []*reachPackage
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.types.Path(), reachFixture) {
			pkgs = append(pkgs, p)
		}
	}
	unreached := unreachedExports(pkgs, "pimnet/internal/", prog.byPath["pimnet"].types)
	for _, k := range unreached {
		if _, ok := reachAllowlist[k]; !ok {
			t.Errorf("%s is reached only by tests: delete it, move it into a _test.go file, or allowlist it with a reason", k)
		}
	}
	for k := range reachAllowlist {
		if !slices.Contains(unreached, k) {
			t.Errorf("allowlist entry %q is reached or not declared: remove it", k)
		}
	}
}

// TestReachGuardResolvesByType runs the guard's resolver over its fixture:
// T.Reset, called only by tests, sits beside a reached U.Reset, and
// S.String is reached only through fmt.Stringer. Matching uses by name
// would credit T.Reset; resolving them by type flags it and nothing else.
func TestReachGuardResolvesByType(t *testing.T) {
	prog := loadReachProgram(t)
	fixture := prog.byPath[reachFixture]
	if fixture == nil {
		t.Fatalf("fixture %s not loaded", reachFixture)
	}
	got := unreachedExports([]*reachPackage{fixture}, "pimnet/testdata/", nil)
	if want := []string{"reachfixture.T.Reset"}; !slices.Equal(got, want) {
		t.Fatalf("fixture flags %v, want %v", got, want)
	}
}

// reachFixture is the import path of the guard's regression fixture.
const reachFixture = "pimnet/testdata/reachfixture"

// reachPackage is one non-test package, type-checked from source, reduced to
// what the resolver reads: the functions its code uses, the interface types
// its code mentions and the standard-library packages it imports.
type reachPackage struct {
	types  *types.Package
	uses   []*types.Func
	ifaces []*types.Interface
	std    []*types.Package
}

type reachProgram struct {
	pkgs   []*reachPackage // dependency order
	byPath map[string]*reachPackage
}

var reachLoad = sync.OnceValues(buildReachProgram)

// loadReachProgram loads the program once per test binary.
func loadReachProgram(t *testing.T) *reachProgram {
	t.Helper()
	prog, err := reachLoad()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// buildReachProgram lists the packages of both modules and the fixture with
// their dependencies, then type-checks every non-standard one from source in
// dependency order. Module imports resolve to the packages already checked,
// so each declaration has one object; standard-library imports come from the
// compiler's export data, which go list -export has built.
func buildReachProgram() (*reachProgram, error) {
	type listed struct {
		ImportPath string
		Dir        string
		Export     string
		GoFiles    []string
		Standard   bool
	}
	var all []listed
	for _, q := range []struct {
		dir      string
		patterns []string
	}{
		{".", []string{"./...", "./testdata/reachfixture"}},
		{"bench", []string{"./..."}},
	} {
		cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, q.patterns...)...)
		cmd.Dir = q.dir
		cmd.Stderr = new(bytes.Buffer)
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", q.dir, err, cmd.Stderr)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listed
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			all = append(all, p)
		}
	}

	exports := make(map[string]string, len(all))
	std := map[string]bool{}
	for _, p := range all {
		exports[p.ImportPath] = p.Export
		std[p.ImportPath] = p.Standard
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	prog := &reachProgram{byPath: map[string]*reachPackage{}}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := prog.byPath[path]; p != nil {
			return p.types, nil
		}
		return gc.Import(path)
	})}
	for _, p := range all {
		if p.Standard || prog.byPath[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		rp := &reachPackage{types: tp}
		for _, imp := range tp.Imports() {
			if std[imp.Path()] {
				rp.std = append(rp.std, imp)
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				rp.uses = append(rp.uses, fn.Origin())
			}
		}
		seen := map[*types.Interface]bool{}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
				seen[it] = true
				rp.ifaces = append(rp.ifaces, it)
			}
		}
		prog.pkgs = append(prog.pkgs, rp)
		prog.byPath[p.ImportPath] = rp
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreachedExports returns, sorted, the keys of the exported functions and
// methods declared in the packages of pkgs under prefix that rules (a)-(c)
// of TestEveryInternalExportIsReached do not credit. Uses and interfaces are
// gathered from pkgs; root is the public API package, nil for none.
func unreachedExports(pkgs []*reachPackage, prefix string, root *types.Package) []string {
	used := map[*types.Func]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	for _, p := range pkgs {
		for _, fn := range p.uses {
			used[fn] = true
		}
		for _, it := range p.ifaces {
			addIface(it)
		}
	}
	stdSeen := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, imp := range p.std {
			if stdSeen[imp] {
				continue
			}
			stdSeen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
	}
	satisfied := func(named *types.Named, method string) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[method] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}
	public := publicTypes(root)

	var out []string
	for _, p := range pkgs {
		path := p.types.Path()
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		pkg := strings.TrimPrefix(path, prefix)
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out = append(out, pkg+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || public[named] {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !satisfied(named, m.Name()) {
						out = append(out, pkg+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// publicTypes returns the named types a user of root can reach from its
// exported API: through aliases, function and method signatures, and the
// exported fields of structs.
func publicTypes(root *types.Package) map[*types.Named]bool {
	seen := map[*types.Named]bool{}
	var walk func(types.Type)
	walkTuple := func(tu *types.Tuple) {
		for i := 0; i < tu.Len(); i++ {
			walk(tu.At(i).Type())
		}
	}
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			t = t.Origin()
			if seen[t] {
				return
			}
			seen[t] = true
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			walk(t.Underlying())
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
			walkTuple(t.Params())
			walkTuple(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	if root != nil {
		scope := root.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				walk(obj.Type())
			}
		}
	}
	return seen
}
