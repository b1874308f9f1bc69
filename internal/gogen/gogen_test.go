package gogen

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/xsd"
	"github.com/go-ccts/ccts/internal/xsdval"
)

// bindings generates the Go bindings of lib's plan; root selects the
// root ABIE of a DOCLibrary.
func bindings(lib *core.Library, root string, opts gen.Options) (string, error) {
	p, err := gen.NewPlan(lib, root, opts)
	if err != nil {
		return "", err
	}
	src, err := generate(p)
	return string(src), err
}

func generated(t *testing.T) string {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	src, err := bindings(f.DOCLib, "HoardingPermit", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestGeneratedStructure(t *testing.T) {
	src := generated(t)
	for _, want := range []string{
		"package messages",
		`import "encoding/xml"`,
		"type HoardingPermit struct {",
		"XMLName xml.Name `xml:\"urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit HoardingPermit\"`",
		// Optional BBIE -> pointer with omitempty.
		"ClosureReason *TextType `xml:\"urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit ClosureReason,omitempty\"`",
		// Unbounded ASBIE -> slice.
		"IncludedAttachment []Attachment `xml:\"urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit IncludedAttachment,omitempty\"`",
		// Required ASBIE -> plain field.
		"IncludedRegistration Registration `xml:\"urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit IncludedRegistration\"`",
		// Data types with content + SUP attributes.
		"type TextType struct {",
		"Value string `xml:\",chardata\"`",
		"LanguageIdentifier string `xml:\"LanguageIdentifier,attr,omitempty\"`",
		"type CountryTypeType struct {",
		"CodeListName string `xml:\"CodeListName,attr,omitempty\"`",
		// Enum constants.
		`CountryTypeType_AUT = "AUT" // Austria`,
		// The paper's sentence made code: ASBIEs become attributes
		// (fields) of the aggregate.
		"BillingPerson_Identification *Person_Identification",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// Unreachable ABIEs are not bound.
	if strings.Contains(src, "HoardingDetails") {
		t.Error("unreachable HoardingDetails bound")
	}
}

func TestGeneratedDeterministic(t *testing.T) {
	if generated(t) != generated(t) {
		t.Error("generation not deterministic")
	}
}

func TestGenerateErrors(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bindings(nil, "X", gen.Options{}); err == nil {
		t.Error("nil library must fail")
	}
	if _, err := bindings(f.Common, "Address", gen.Options{}); err == nil {
		t.Error("non-DOC library must fail")
	}
	if _, err := bindings(f.DOCLib, "Nope", gen.Options{}); err == nil {
		t.Error("unknown root must fail")
	}
}

func TestGoIdent(t *testing.T) {
	cases := map[string]string{
		"HoardingPermit":        "HoardingPermit",
		"Person_Identification": "Person_Identification",
		"EB005-HoardingPermit":  "EB005HoardingPermit",
		"lower case":            "LowerCase",
		"9lives":                "N9lives",
		"_u_erePartner":         "X_U_ErePartner",
		"__":                    "X__",
		"":                      "X",
		"CodeListName":          "CodeListName",
	}
	for in, want := range cases {
		if got := goIdent(in); got != want {
			t.Errorf("goIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLineBreaksStayInComments generates bindings for a HoardingPermit
// whose enumeration literal values and one BBIE name (so its DEN) hold
// a line break, and requires go/types to accept the file: every line of
// such a text must stay inside its comment.
func TestLineBreaksStayInComments(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.EnumLib.ENUMs {
		for i := range e.Literals {
			e.Literals[i].Value = "first line\nsecond line"
		}
	}
	f.Permit.BBIEs[0].Name = "Closure\nReason"
	src, err := bindings(f.DOCLib, "HoardingPermit", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "\t// second line\n") {
		t.Errorf("literal value's second line not commented:\n%s", src)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "bindings.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("messages", fset, []*ast.File{file}, nil); err != nil {
		t.Fatalf("generated bindings do not type-check: %v\n%s", err, src)
	}
}

// TestCompileAndMarshalRoundTrip compiles the generated bindings with a
// driver that marshals a message, runs it, and validates the output
// against the XSD set generated from the same model under the same
// namespace-rewriting profile — proving the "transferred into code"
// claim end to end.
func TestCompileAndMarshalRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	opts := gen.Options{Profile: &gen.Profile{Namespaces: map[string]string{
		f.DOCLib.BaseURN: "urn:acme:permits:v2",
		f.Common.BaseURN: "urn:acme:common:v2",
	}}}
	src, err := bindings(f.DOCLib, "HoardingPermit", opts)
	if err != nil {
		t.Fatal(err)
	}
	// The bindings are package messages; the driver lives beside them.
	src = strings.Replace(src, "package messages", "package main", 1)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module bindingscheck\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bindings.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	driver := `package main

import (
	"encoding/xml"
	"fmt"
	"log"
)

func main() {
	closure := &TextType{Value: "Scaffolding"}
	msg := HoardingPermit{
		ClosureReason: closure,
		IncludedAttachment: []Attachment{
			{Description: &TextType{Value: "Site plan"}},
		},
		IncludedRegistration: Registration{
			Type: &RegistrationType_CodeType{Value: "local"},
		},
		BillingPerson_Identification: &Person_Identification{
			Designation:       IdentifierType{Value: "AU-552-19"},
			PersonalSignature: Signature{},
			AssignedAddress: Address{
				CountryName: &CountryTypeType{Value: CountryTypeType_AUS},
			},
		},
	}
	out, err := xml.MarshalIndent(msg, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(driver), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s", err, out)
	}

	// The marshalled message validates against the schema set.
	res, err := gen.GenerateDocument(f.DOCLib, "HoardingPermit", opts)
	if err != nil {
		t.Fatal(err)
	}
	var schemas []*xsd.Schema
	for _, file := range res.Order {
		schemas = append(schemas, res.Schemas[file])
	}
	set, err := xsdval.NewSchemaSet(schemas...)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := set.ValidateString(string(out))
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, e := range vres.Errors {
		t.Errorf("marshalled message invalid: %s", e)
	}
	if vres.Valid() {
		t.Logf("marshalled message validates:\n%s", out)
	}
}
