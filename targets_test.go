package ccts_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

func buildPurchaseOrder(t *testing.T) *fixture.PurchaseOrder {
	t.Helper()
	f, err := fixture.BuildPurchaseOrder()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// targetGoldenPath is the golden file of a generated file. Generated Go
// source is not gofmt-aligned, so its golden carries a .golden suffix
// that keeps it out of gofmt and the go tool.
func targetGoldenPath(model, target, name string) string {
	if strings.HasSuffix(name, ".go") {
		name += ".golden"
	}
	return filepath.Join("testdata", "golden", model, target, name)
}

// TestGoldenPurchaseOrderTargets pins the purchaseorder example's EU
// order document across every registered target byte-for-byte.
// Run with -update after an intentional backend change.
func TestGoldenPurchaseOrderTargets(t *testing.T) {
	f := buildPurchaseOrder(t)
	for _, target := range ccts.Targets() {
		t.Run(target, func(t *testing.T) {
			out, err := ccts.GenerateTargetDocument(f.EUDocLib, "EU_Order", target, ccts.GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if out.RootElement == "" {
				t.Error("RootElement is empty for a document run")
			}
			if len(out.Files) == 0 {
				t.Fatal("no files generated")
			}
			for _, file := range out.Files {
				compareGolden(t, targetGoldenPath("purchaseorder", target, file.Name), string(file.Data))
			}
		})
	}
}

// TestGoldenHoardingPermitTargets pins the Figure 6 document for the
// targets TestGoldenSchemas, TestGoldenRelaxNG and TestGoldenRDFS do not
// cover. Run with -update after an intentional backend change.
func TestGoldenHoardingPermitTargets(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"go", "jsonschema", "proto"} {
		t.Run(target, func(t *testing.T) {
			out, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", target, ccts.GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Files) == 0 {
				t.Fatal("no files generated")
			}
			for _, file := range out.Files {
				compareGolden(t, targetGoldenPath("hoardingpermit", target, file.Name), string(file.Data))
			}
		})
	}
}

// TestGoldenAnnotatedTargets pins annotated document runs: the Figure 6
// document on the targets TestGoldenSchemas does not cover, and the
// escapes fixture on every target. Run with -update after an
// intentional backend change.
func TestGoldenAnnotatedTargets(t *testing.T) {
	hp, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	esc, err := fixture.BuildEscapes()
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		dir     string
		lib     *ccts.Library
		root    string
		targets []string
	}{
		{"hoardingpermit-annotated", hp.DOCLib, "HoardingPermit", []string{"go", "jsonschema", "proto", "rdfs", "rng"}},
		{"escapes", esc.DOCLib, esc.Root.Name, ccts.Targets()},
	}
	for _, r := range runs {
		for _, target := range r.targets {
			t.Run(r.dir+"/"+target, func(t *testing.T) {
				out, err := ccts.GenerateTargetDocument(r.lib, r.root, target, ccts.GenerateOptions{Annotate: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Files) == 0 {
					t.Fatal("no files generated")
				}
				for _, file := range out.Files {
					compareGolden(t, targetGoldenPath(r.dir, target, file.Name), string(file.Data))
				}
			})
		}
	}
}

// TestGoldenLibraryTargets pins library runs (no root ABIE) of a BIE
// and a CDT library across every registered target: the golden
// directory of each run holds exactly the generated files. The go
// target binds documents only, so a library run must fail. Run with
// -update after an intentional backend change.
func TestGoldenLibraryTargets(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	for _, lib := range []*ccts.Library{f.Common, f.Catalog.CDTLibrary} {
		for _, target := range ccts.Targets() {
			t.Run(lib.Name+"/"+target, func(t *testing.T) {
				out, err := ccts.GenerateTargetDocument(lib, "", target, ccts.GenerateOptions{})
				if target == "go" {
					if err == nil {
						t.Fatalf("go target generated %d file(s) for a library run, want an error", len(out.Files))
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if out.RootElement != "" {
					t.Errorf("RootElement = %q for a library run, want empty", out.RootElement)
				}
				dir := filepath.Join("testdata", "golden", "libraries", lib.Name, target)
				var names []string
				for _, file := range out.Files {
					names = append(names, file.Name)
					compareGolden(t, filepath.Join(dir, file.Name), string(file.Data))
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var golden []string
				for _, e := range entries {
					golden = append(golden, e.Name())
				}
				sort.Strings(names)
				if strings.Join(names, " ") != strings.Join(golden, " ") {
					t.Errorf("generated files %v, golden directory holds %v", names, golden)
				}
			})
		}
	}
}

// TestTargetXSDMatchesClassicPath pins that the "xsd" backend emits the
// exact bytes of the classic Generate + Schema.Write path.
func TestTargetXSDMatchesClassicPath(t *testing.T) {
	f := buildPurchaseOrder(t)
	res, err := ccts.GenerateDocument(f.USDocLib, "US_Order", ccts.GenerateOptions{Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", "xsd", ccts.GenerateOptions{Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Files) != len(res.Order) {
		t.Fatalf("got %d files, want %d", len(out.Files), len(res.Order))
	}
	for i, file := range out.Files {
		if file.Name != res.Order[i] {
			t.Fatalf("Files[%d] = %q, want %q", i, file.Name, res.Order[i])
		}
		if string(file.Data) != res.Schemas[file.Name].String() {
			t.Errorf("%s: backend bytes differ from classic serialization", file.Name)
		}
	}
	if out.RootElement != res.RootElement {
		t.Errorf("RootElement = %q, want %q", out.RootElement, res.RootElement)
	}
}

// TestTargetStatusSequence pins the status lines of two targeted runs.
// A backend that walks the plan with EachOp sends the same "emitted"
// lines as the xsd run; one that renders the plan in one pass sends
// none, so nothing reports work before it is done.
func TestTargetStatusSequence(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		lib          *ccts.Library
		root, target string
		want         []string
	}{
		{"jsonschema library", f.Common, "", "jsonschema", []string{
			"generating schema for BIELibrary CommonAggregates",
			"processing BIELibrary CommonAggregates",
			"processing CDTLibrary coredatatypes",
			"processing QDTLibrary BuildingAndPlanningDataTypes",
			"processing ENUMLibrary EnumerationTypes",
			"emitted 5 definition(s) for BIELibrary CommonAggregates",
			"emitted 13 definition(s) for CDTLibrary coredatatypes",
			"emitted 4 definition(s) for QDTLibrary BuildingAndPlanningDataTypes",
			"emitted 2 definition(s) for ENUMLibrary EnumerationTypes",
			"generated 4 jsonschema file(s)",
		}},
		{"rng document", f.DOCLib, "HoardingPermit", "rng", []string{
			"generating document schema for EB005-HoardingPermit (root HoardingPermit)",
			"processing CDTLibrary coredatatypes",
			"processing QDTLibrary BuildingAndPlanningDataTypes",
			"processing ENUMLibrary EnumerationTypes",
			"processing BIELibrary CommonAggregates",
			"processing BIELibrary LocalLawAggregates",
			"generated 1 rng file(s)",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lines []string
			opts := ccts.GenerateOptions{Status: func(msg string) { lines = append(lines, msg) }}
			if _, err := ccts.GenerateTargetDocument(tc.lib, tc.root, tc.target, opts); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(lines, tc.want) {
				t.Errorf("status lines:\n%q\nwant:\n%q", lines, tc.want)
			}
		})
	}
}

// TestGenerateTargetUnknown rejects unregistered targets.
func TestGenerateTargetUnknown(t *testing.T) {
	f := buildPurchaseOrder(t)
	if _, err := ccts.GenerateTargetDocument(f.EUDocLib, "EU_Order", "wsdl", ccts.GenerateOptions{}); err == nil {
		t.Fatal("expected an error for an unknown target")
	} else if !strings.Contains(err.Error(), "wsdl") {
		t.Errorf("error should name the unknown target: %v", err)
	}
}

// TestGenProfileIdentity pins the profile zero-value contract: a nil
// profile and an empty profile produce bytes identical to each other
// for every target.
func TestGenProfileIdentity(t *testing.T) {
	f := buildPurchaseOrder(t)
	for _, target := range ccts.Targets() {
		without, err := ccts.GenerateTargetDocument(f.EUDocLib, "EU_Order", target, ccts.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		with, err := ccts.GenerateTargetDocument(f.EUDocLib, "EU_Order", target,
			ccts.GenerateOptions{Profile: &ccts.GenProfile{}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range without.Files {
			if !bytes.Equal(without.Files[i].Data, with.Files[i].Data) {
				t.Errorf("%s/%s: zero profile changed output bytes", target, without.Files[i].Name)
			}
		}
	}
}

// TestGenProfileOverrides exercises the three override axes across
// backends: datatype mapping, namespace rewrite and root preselection.
func TestGenProfileOverrides(t *testing.T) {
	f := buildPurchaseOrder(t)

	t.Run("datatype", func(t *testing.T) {
		prof := &ccts.GenProfile{Name: "strict-amounts", Version: 1,
			Datatypes: map[string]string{"Amount": "xsd:decimal"}}
		out, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", "xsd",
			ccts.GenerateOptions{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		all := joinFiles(out)
		if !strings.Contains(all, `base="xsd:decimal"`) {
			t.Error("datatype override xsd:decimal not applied to AmountType")
		}

		jout, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", "jsonschema",
			ccts.GenerateOptions{Profile: &ccts.GenProfile{Datatypes: map[string]string{"Amount": "number"}}})
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, file := range jout.Files {
			var doc map[string]any
			if err := json.Unmarshal(file.Data, &doc); err != nil {
				t.Fatalf("%s: invalid JSON: %v", file.Name, err)
			}
			if strings.Contains(string(file.Data), `"AmountType"`) {
				found = true
			}
		}
		if !found {
			t.Error("jsonschema output lost the AmountType definition")
		}
	})

	t.Run("namespace", func(t *testing.T) {
		prof := &ccts.GenProfile{Namespaces: map[string]string{
			"urn:trade:us:order": "urn:acme:orders:v2",
		}}
		out, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", "xsd",
			ccts.GenerateOptions{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		primary := string(out.Files[0].Data)
		if !strings.Contains(primary, "urn:acme:orders:v2") {
			t.Error("namespace override missing from the document schema")
		}
		if strings.Contains(primary, `targetNamespace="urn:trade:us:order"`) {
			t.Error("modeled namespace still used as targetNamespace despite override")
		}
	})

	t.Run("root", func(t *testing.T) {
		prof := &ccts.GenProfile{Root: "US_Order"}
		out, err := ccts.GenerateTargetDocument(f.USDocLib, "", "xsd",
			ccts.GenerateOptions{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if out.RootElement == "" {
			t.Error("profile root preselection did not select a root element")
		}
	})

	t.Run("imports", func(t *testing.T) {
		// The namespaces US_Order's schema set imports, each with the
		// base name of the file that defines it.
		xsdOut, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", "xsd", ccts.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		importRE := regexp.MustCompile(`<xsd:import namespace="([^"]+)" schemaLocation="([^"]+)\.xsd"/>`)
		bases := map[string]string{}
		for _, m := range importRE.FindAllStringSubmatch(joinFiles(xsdOut), -1) {
			bases[m[1]] = m[2]
		}
		if len(bases) == 0 {
			t.Fatal("US_Order imports no namespace")
		}
		// Each target names an imported document between before and
		// after: the XSD schemaLocation, the JSON Schema $ref document
		// and the proto import path.
		for _, tc := range []struct{ target, ext, before, after string }{
			{"xsd", ".xsd", `schemaLocation="`, `"`},
			{"jsonschema", ".json", `"$ref": "`, `#`},
			{"proto", ".proto", `import "`, `";`},
		} {
			plain, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", tc.target, ccts.GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			imports := map[string]string{}
			want := joinFiles(plain)
			for ns, base := range bases {
				file := base + tc.ext
				imports[ns] = "../schemas/" + file
				moved := strings.ReplaceAll(want, tc.before+file+tc.after, tc.before+"../schemas/"+file+tc.after)
				if moved == want {
					t.Errorf("%s: no reference to %s", tc.target, file)
				}
				want = moved
			}
			out, err := ccts.GenerateTargetDocument(f.USDocLib, "US_Order", tc.target,
				ccts.GenerateOptions{Profile: &ccts.GenProfile{Imports: imports}})
			if err != nil {
				t.Fatal(err)
			}
			// The profile moves every import and changes nothing else.
			if got := joinFiles(out); got != want {
				t.Errorf("%s: output with the imports profile differs from the profile-less output with every import moved to ../schemas/", tc.target)
			}
		}
	})
}

// TestRootRuleOnBothEntryPoints pins the root rule GenerateDocument and
// GenerateTargetDocument share: the explicit root, else the profile's
// root; a DOCLibrary with neither fails and lists the available roots.
func TestRootRuleOnBothEntryPoints(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	profiled := ccts.GenerateOptions{Profile: &ccts.GenProfile{Root: "HoardingPermit"}}
	// generate runs both entry points and returns their errors and
	// selected root elements.
	generate := func(root string, opts ccts.GenerateOptions) (errs [2]error, elements [2]string) {
		res, err := ccts.GenerateDocument(f.DOCLib, root, opts)
		if errs[0] = err; err == nil {
			elements[0] = res.RootElement
		}
		out, err := ccts.GenerateTargetDocument(f.DOCLib, root, "xsd", opts)
		if errs[1] = err; err == nil {
			elements[1] = out.RootElement
		}
		return errs, elements
	}
	for _, tc := range []struct {
		name, root string
		opts       ccts.GenerateOptions
		want       string
	}{
		{"profile root", "", profiled, "HoardingPermit"},
		{"explicit root wins", "HoardingDetails", profiled, "HoardingDetails"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs, elements := generate(tc.root, tc.opts)
			for i, entry := range []string{"GenerateDocument", "GenerateTargetDocument"} {
				if errs[i] != nil || elements[i] != tc.want {
					t.Errorf("%s: root element %q, err %v; want %q", entry, elements[i], errs[i], tc.want)
				}
			}
		})
	}
	t.Run("no root", func(t *testing.T) {
		errs, _ := generate("", ccts.GenerateOptions{})
		for i, entry := range []string{"GenerateDocument", "GenerateTargetDocument"} {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "[HoardingPermit HoardingDetails]") {
				t.Errorf("%s: err %v, want the available roots listed", entry, errs[i])
			}
		}
	})
}

// TestGenProfileNamespaceEveryTarget rewrites the EU order document's
// namespace and requires every target to apply it: the document's file
// carries the rewritten namespace and no longer the modelled one.
func TestGenProfileNamespaceEveryTarget(t *testing.T) {
	f := buildPurchaseOrder(t)
	const modelled, rewritten = "urn:trade:eu:order", "urn:acme:orders:v2"
	prof := &ccts.GenProfile{Namespaces: map[string]string{modelled: rewritten}}
	for _, target := range ccts.Targets() {
		t.Run(target, func(t *testing.T) {
			out, err := ccts.GenerateTargetDocument(f.EUDocLib, "EU_Order", target,
				ccts.GenerateOptions{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			doc := out.Files[0]
			if !strings.Contains(string(doc.Data), rewritten) {
				t.Errorf("%s lacks the rewritten namespace %q", doc.Name, rewritten)
			}
			if strings.Contains(string(doc.Data), modelled) {
				t.Errorf("%s still carries the modelled namespace %q", doc.Name, modelled)
			}
		})
	}
}

// TestWriteOutput round-trips a multi-target result through the atomic
// file writer.
func TestWriteOutput(t *testing.T) {
	f := buildPurchaseOrder(t)
	out, err := ccts.GenerateTargetDocument(f.EUDocLib, "EU_Order", "proto", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := ccts.WriteOutput(out, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(out.Files) {
		t.Fatalf("wrote %d files, want %d", len(paths), len(out.Files))
	}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, out.Files[i].Data) {
			t.Errorf("%s: written bytes differ from generated bytes", p)
		}
	}
}

func joinFiles(out *ccts.GenOutput) string {
	var b strings.Builder
	for _, f := range out.Files {
		b.Write(f.Data)
	}
	return b.String()
}

// TestEnumerationLiteralWithBackslash generates the HoardingPermit
// schemas with an ENUM literal holding a backslash and reads the
// xsd:enumeration facet back unchanged.
func TestEnumerationLiteralWithBackslash(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	const literal = `A\B`
	enum := f.Model.FindENUM("CountryType_Code")
	enum.Literals[0].Name = literal
	out, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", "xsd", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range out.Files {
		s, err := ccts.ParseSchema(bytes.NewReader(file.Data))
		if err != nil {
			t.Fatalf("%s: %v", file.Name, err)
		}
		for _, st := range s.SimpleTypes {
			if r := st.Restriction; r != nil && len(r.Enumerations) == len(enum.Literals) {
				if r.Enumerations[0] != literal {
					t.Errorf("%s: %s enumerates %q, want %q", file.Name, st.Name, r.Enumerations[0], literal)
				}
				return
			}
		}
	}
	t.Fatal("no enumeration of CountryType_Code found")
}

// TestGoGoldensExportEveryField parses every Go bindings golden and
// requires each struct field to be exported: encoding/xml skips an
// unexported field without an error, so its element would be lost.
func TestGoGoldensExportEveryField(t *testing.T) {
	var files []string
	err := filepath.WalkDir("testdata/golden", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go.golden") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("found %d Go goldens, want every run's", len(files))
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if !name.IsExported() {
						t.Errorf("%s: struct field %s is not exported", path, name.Name)
					}
				}
			}
			return true
		})
	}
}
