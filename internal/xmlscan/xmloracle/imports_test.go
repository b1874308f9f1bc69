package xmloracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTestsImportOracle keeps the oracle and encoding/xml out of
// every binary: no non-test Go file in the repository imports this
// package, and none outside it imports encoding/xml.
func TestOnlyTestsImportOracle(t *testing.T) {
	const self = "github.com/go-ccts/ccts/internal/xmlscan/xmloracle"
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == self:
				t.Errorf("%s imports the test-only oracle", path)
			case p == "encoding/xml" && filepath.Dir(path) != here:
				t.Errorf("%s imports encoding/xml", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files under %s, want the whole repository", files, root)
	}
}
