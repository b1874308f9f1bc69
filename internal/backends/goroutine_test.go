package backends

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGenerationStartsNoGoroutine keeps generation on the caller's
// goroutine, which is why gen.Options.Status is called without a lock:
// no non-test file of the generator, this registry or a backend package
// (the xsd writer included) has a go statement or imports sync or
// sync/atomic.
func TestGenerationStartsNoGoroutine(t *testing.T) {
	for _, dir := range []string{"../gen", ".", "../jsonschema", "../protogen", "../rng", "../rdfs", "../gogen", "../xsd"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s imports %s", path, p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement", fset.Position(g.Pos()))
				}
				return true
			})
		}
		if files == 0 {
			t.Errorf("no Go files in %s", dir)
		}
	}
}
