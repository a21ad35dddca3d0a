package pimnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names exported functions and methods under internal/ that no
// non-test file names but that are still reachable, each with the reason.
// Keys are "<pkg>.<Recv>.<Name>" or "<pkg>.<Name>", with <pkg> the directory
// below internal/; a key naming a file ("<pkg>/<file>.go") covers all of it.
var reachAllowlist = map[string]string{
	"cluster.ring.Less":               "sort.Interface method, called by sort.Sort",
	"cluster.ring.Swap":               "sort.Interface method, called by sort.Sort",
	"metrics.Breakdown.MarshalJSON":   "json.Marshaler method, called by encoding/json",
	"metrics.Breakdown.UnmarshalJSON": "json.Unmarshaler method, called by encoding/json",
	"serve.PointError.Unwrap":         "errors.Unwrap method, called by errors.Is and errors.As",
	"config.System.TotalDPUs":         "method of pimnet.System, which the root package re-exports",
	"trace.Recorder.Dropped":          "method of *trace.Recorder, which pimnet.NewTraceRecorder returns",
	"sim.Engine.QueueCap":             "footprint probe: noc's TestSaturatedRunBoundedPeakHeap bounds the queue's capacity across the package boundary",
}

// TestEveryInternalExportIsReached fails when an exported top-level function
// or method under internal/ is named by no non-test .go file in the module
// (cmd/, examples/ and bench/ included) other than its own declaration. Such
// code is reached only by its tests: delete it, or move it into a _test.go
// file when it serves as a test oracle.
//
// A use is matched by bare identifier, not by receiver type, so a method
// counts as reached when any same-named function or method is named. That
// is how the test-only PlanCache.Reset went unflagged: Network.Reset and
// Link.Reset are reached. Review same-named methods by hand.
func TestEveryInternalExportIsReached(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, file string }
	var decls []decl
	declNames := map[*ast.Ident]bool{}
	uses := map[string]int{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declNames[fn.Name] = true
			key := strings.TrimPrefix(dir, "internal/") + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, strings.TrimPrefix(filepath.ToSlash(path), "internal/")})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name]++
			}
			return true
		})
	}
	var unreached []string
	stale := make(map[string]bool, len(reachAllowlist))
	for k := range reachAllowlist {
		stale[k] = true
	}
	for _, d := range decls {
		delete(stale, d.key)
		delete(stale, d.file)
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		_, keyOK := reachAllowlist[d.key]
		_, fileOK := reachAllowlist[d.file]
		if uses[name] == 0 && !keyOK && !fileOK {
			unreached = append(unreached, d.key)
		}
	}
	sort.Strings(unreached)
	for _, k := range unreached {
		t.Errorf("%s is named by no non-test file: delete it, move it into a _test.go file, or allowlist it with a reason", k)
	}
	for k := range stale {
		t.Errorf("allowlist entry %q matches no exported declaration: remove it", k)
	}
}

// recvName returns the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
