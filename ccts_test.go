package ccts_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

func TestWriteSchemasAndLoadSchemaSet(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "nested", "schemas")
	paths, err := ccts.WriteSchemas(res, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(res.Order) {
		t.Errorf("wrote %d files, want %d", len(paths), len(res.Order))
	}
	// The written schemas load back into a working validator.
	set, err := ccts.LoadSchemaSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := set.ValidateString(`<doc:HoardingPermit
	    xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"
	    xmlns:ll="urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates">
	  <doc:IncludedRegistration><ll:Type>x</ll:Type></doc:IncludedRegistration>
	</doc:HoardingPermit>`)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Valid() {
		t.Errorf("disk round trip broke validation: %v", vr.Errors)
	}
}

func TestWriteSchemasFailureInjection(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Target directory cannot be created because a file sits in the way.
	parent := t.TempDir()
	blocker := filepath.Join(parent, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ccts.WriteSchemas(res, filepath.Join(blocker, "sub")); err == nil {
		t.Error("writing under a file should fail")
	}
	// Read-only directory: file creation fails.
	roDir := filepath.Join(parent, "ro")
	if err := os.MkdirAll(roDir, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Getuid() != 0 { // root bypasses permission checks
		if _, err := ccts.WriteSchemas(res, roDir); err == nil {
			t.Error("writing into a read-only dir should fail")
		}
	}
}

func TestLoadSchemaSetErrors(t *testing.T) {
	if _, err := ccts.LoadSchemaSet("/no/such/dir"); err == nil {
		t.Error("missing dir should fail")
	}

	empty := t.TempDir()
	if _, err := ccts.LoadSchemaSet(empty); err == nil {
		t.Error("empty dir should fail")
	} else if !strings.Contains(err.Error(), "no .xsd files") {
		t.Errorf("empty dir error should say no .xsd files: %v", err)
	}

	// A directory with files but none of them schemas reads the same as
	// an empty one; the stray file is skipped, not parsed.
	nonXSD := t.TempDir()
	if err := os.WriteFile(filepath.Join(nonXSD, "notes.txt"), []byte("not a schema"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ccts.LoadSchemaSet(nonXSD); err == nil {
		t.Error("dir without .xsd files should fail")
	} else if !strings.Contains(err.Error(), "no .xsd files") {
		t.Errorf("non-XSD dir error should say no .xsd files: %v", err)
	}
}

func TestLoadSchemaSetPositionedError(t *testing.T) {
	bad := t.TempDir()
	// Line 3 declares an element with a malformed attribute list.
	doc := "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"\n" +
		"    targetNamespace=\"urn:t\">\n" +
		"  <xsd:element name=\"Root\" type=</xsd:schema>\n"
	path := filepath.Join(bad, "broken.xsd")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ccts.LoadSchemaSet(bad)
	if err == nil {
		t.Fatal("broken schema should fail")
	}
	var fe *ccts.SchemaFileError
	if !errors.As(err, &fe) {
		t.Fatalf("error is %T, want *ccts.SchemaFileError: %v", err, err)
	}
	if fe.File != path {
		t.Errorf("File = %q, want %q", fe.File, path)
	}
	if fe.Line < 1 {
		t.Errorf("error carries no position: %+v", fe)
	}
	if !strings.Contains(err.Error(), "broken.xsd") {
		t.Errorf("message does not name the file: %v", err)
	}
}

func TestParseSchemaFacade(t *testing.T) {
	doc := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:element name="Root" type="RootType"/>
	  <xsd:complexType name="RootType"><xsd:sequence/></xsd:complexType>
	</xsd:schema>`
	s, err := ccts.ParseSchema(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.TargetNamespace != "urn:t" {
		t.Errorf("tns = %q", s.TargetNamespace)
	}
}

func TestRelaxNGFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	g, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", "rng", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(g.Files[0].Data), "relaxng.org/ns/structure") {
		t.Error("grammar namespace missing")
	}
	g2, err := ccts.GenerateTargetDocument(f.Common, "", "rng", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(g2.Files[0].Data), "<define ") {
		t.Error("library grammar empty")
	}
}

func TestRDFSchemaAndSampleFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", "rdfs", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc.Files[0].Data), "rdfs:Class") {
		t.Error("RDF schema incomplete")
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ccts.CompileSchemas(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ccts.SampleMode{ccts.SampleMinimal, ccts.SampleFull} {
		msg, err := ccts.GenerateSample(set, f.DOCLib.BaseURN, "HoardingPermit", mode)
		if err != nil {
			t.Fatal(err)
		}
		vr, err := set.ValidateString(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !vr.Valid() {
			t.Errorf("generated sample invalid: %v", vr.Errors)
		}
	}
}

func TestMaintenanceFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	if n := ccts.UpdateNamespaces(f.Model, "urn:au:gov:vic:easybiz", "urn:x"); n != 6 {
		t.Errorf("UpdateNamespaces = %d", n)
	}
	if n := ccts.BumpVersions(f.Model, "3.0"); n != 8 {
		t.Errorf("BumpVersions = %d", n)
	}
	if uses := ccts.WhereUsed(f.Model, "Code"); len(uses) == 0 {
		t.Error("WhereUsed empty")
	}
	if unused := ccts.UnusedComponents(f.Model); len(unused) == 0 {
		t.Error("UnusedComponents empty")
	}
	stats := ccts.CollectStats(f.Model)
	if stats.ACCs != 8 {
		t.Errorf("stats = %+v", stats)
	}
	if err := ccts.RenameABIE(f.AttachmentBIE, "Enclosure"); err != nil {
		t.Errorf("RenameABIE: %v", err)
	}
	if err := ccts.RenameACC(f.Model.FindACC("Attachment"), "Enclosure"); err != nil {
		t.Errorf("RenameACC: %v", err)
	}
}

func TestGoBindingsFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", "go", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := string(out.Files[0].Data)
	if !strings.Contains(src, "package messages") || !strings.Contains(src, "type HoardingPermit struct") {
		t.Error("bindings incomplete")
	}
}

func TestCompareModelsFacade(t *testing.T) {
	a, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	if r := ccts.CompareModels(a.Model, b.Model); !r.Empty() {
		t.Errorf("identical models differ: %v", r.Changes)
	}
	b.Common.Version = "0.2"
	r := ccts.CompareModels(a.Model, b.Model)
	if r.Empty() || len(r.ByKind(ccts.DiffModified)) == 0 {
		t.Errorf("version change not detected: %v", r.Changes)
	}
}

func TestCustomConstraintFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	um := ccts.ToUML(f.Model)
	rule, err := ccts.NewConstraint("HOUSE-1", ccts.OnClass, []string{"ABIE"},
		"every ABIE has a version", "not self.versionIdentifier.oclIsUndefined()")
	if err != nil {
		t.Fatal(err)
	}
	vs := ccts.EvaluateConstraintsWith(um, []ccts.Constraint{rule})
	if len(vs) == 0 {
		t.Error("expected HOUSE-1 violations (fixture ABIEs carry no versionIdentifier tag)")
	}
}

func TestProfileConstraintsFacade(t *testing.T) {
	cs := ccts.Constraints()
	if len(cs) < 25 {
		t.Errorf("constraints = %d, want >= 25", len(cs))
	}
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	um := ccts.ToUML(f.Model)
	if vs := ccts.EvaluateConstraints(um); len(vs) != 0 {
		t.Errorf("violations = %v", vs)
	}
	report := ccts.ValidateUML(um)
	if report.HasErrors() {
		t.Errorf("UML validation errors: %v", report.Errors())
	}
	back, err := ccts.FromUML(um)
	if err != nil {
		t.Fatal(err)
	}
	if back.FindABIE("HoardingPermit") == nil {
		t.Error("FromUML lost HoardingPermit")
	}
}

func TestBusinessContextFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	ctx := ccts.NewContext().With(ccts.CtxGeopolitical, "AU")
	f.RegistrationBIE.SetContext(ctx)

	parsed, err := ccts.ParseContext(ctx.String())
	if err != nil || parsed.String() != ctx.String() {
		t.Errorf("ParseContext round trip: %v, %v", parsed, err)
	}

	regACC := f.Model.FindACC("Registration")
	got, ok := f.Model.ResolveInContext(regACC, ccts.NewContext().With(ccts.CtxGeopolitical, "AU"))
	if !ok || got != f.RegistrationBIE {
		t.Errorf("ResolveInContext = %v, %v", got, ok)
	}
	// No default fallback exists for an unknown situation.
	if _, ok := f.Model.ResolveInContext(regACC, ccts.NewContext()); ok {
		t.Error("AU-specific BIE should not match the default situation")
	}

	// Context survives the full XMI round trip.
	var buf bytes.Buffer
	if err := ccts.ExportXMI(f.Model, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ccts.ImportXMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.FindABIE("Registration").Context().String() != ctx.String() {
		t.Error("context lost in XMI round trip")
	}
}

func TestCardinalityConstants(t *testing.T) {
	if ccts.One.Lower != 1 || ccts.One.Upper != 1 {
		t.Error("One wrong")
	}
	if ccts.Optional.Lower != 0 || ccts.Optional.Upper != 1 {
		t.Error("Optional wrong")
	}
	if ccts.Many.Upper != ccts.Unbounded || ccts.OneOrMore.Lower != 1 {
		t.Error("Many/OneOrMore wrong")
	}
}

func TestSchemaFileNameFacade(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	if got := ccts.SchemaFileName(f.DOCLib); got != "EB005-HoardingPermit_0.4.xsd" {
		t.Errorf("SchemaFileName = %q", got)
	}
}
