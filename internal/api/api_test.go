package api

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestClientDeclaresNoWireShape: the client side of the wire decodes
// this package's declarations and declares no JSON shape of its own. A
// struct type, named or anonymous, with a json tag in a non-test file
// of internal/client, cmd/ccrepo or cmd/ccjobs fails.
func TestClientDeclaresNoWireShape(t *testing.T) {
	for _, dir := range []string{"../client", "../../cmd/ccrepo", "../../cmd/ccjobs"} {
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
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if field.Tag == nil {
						continue
					}
					tag, err := strconv.Unquote(field.Tag.Value)
					if err != nil {
						t.Fatalf("%s: %v", fset.Position(field.Pos()), err)
					}
					if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
						t.Errorf("%s: struct field with a json tag; decode a type of internal/api instead", fset.Position(field.Pos()))
					}
				}
				return true
			})
		}
		if files == 0 {
			t.Errorf("no Go files in %s", dir)
		}
	}
}
