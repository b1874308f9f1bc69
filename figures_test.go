package ccts_test

// This file is the per-figure experiment index of DESIGN.md: each test
// reproduces one figure of the paper at the public-API level. Measured
// outcomes are recorded in EXPERIMENTS.md.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

// buildFigure1 constructs the Figure 1 model through the public API.
func buildFigure1(t testing.TB) (*ccts.Model, *ccts.ACC, *ccts.ABIE) {
	m := ccts.NewModel("Figure1")
	biz := m.AddBusinessLibrary("Example")
	cat, err := ccts.InstallCatalog(biz)
	if err != nil {
		t.Fatal(err)
	}
	ccLib := biz.AddLibrary(ccts.KindCCLibrary, "CoreComponents", "urn:example:cc")
	ccLib.Version = "1.0"
	bieLib := biz.AddLibrary(ccts.KindBIELibrary, "USEntities", "urn:example:us")
	bieLib.Version = "1.0"

	person, err := ccLib.AddACC("Person")
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = person.AddBCC("DateofBirth", cat.CDT(ccts.CDTDate), ccts.One)
	must(err)
	_, err = person.AddBCC("FirstName", cat.CDT(ccts.CDTText), ccts.One)
	must(err)
	address, err := ccLib.AddACC("Address")
	must(err)
	_, err = address.AddBCC("Country", cat.CDT(ccts.CDTCode), ccts.One)
	must(err)
	_, err = address.AddBCC("PostalCode", cat.CDT(ccts.CDTText), ccts.One)
	must(err)
	_, err = address.AddBCC("Street", cat.CDT(ccts.CDTText), ccts.One)
	must(err)
	_, err = person.AddASCC("Private", address, ccts.One, ccts.AggregationComposite)
	must(err)
	_, err = person.AddASCC("Work", address, ccts.One, ccts.AggregationComposite)
	must(err)

	usAddress, err := ccts.DeriveABIE(bieLib, address, ccts.Restriction{
		Qualifier: "US",
		BBIEs:     []ccts.BBIEPick{{BCC: "PostalCode"}, {BCC: "Street"}},
	})
	must(err)
	usPerson, err := ccts.DeriveABIE(bieLib, person, ccts.Restriction{
		Qualifier: "US",
		BBIEs:     []ccts.BBIEPick{{BCC: "DateofBirth"}, {BCC: "FirstName"}},
		ASBIEs: []ccts.ASBIEPick{
			{Role: "Private", Target: usAddress, Rename: "US_Private"},
			{Role: "Work", Target: usAddress, Rename: "US_Work"},
		},
	})
	must(err)
	return m, person, usPerson
}

// TestFigure1EntitySets reproduces the exact entity listings of the
// paper's Sections 2.1 and 2.2.
func TestFigure1EntitySets(t *testing.T) {
	_, person, usPerson := buildFigure1(t)
	wantCC := []string{
		"Person (ACC)",
		"Person.DateofBirth (BCC)",
		"Person.FirstName (BCC)",
		"Person.Private.Address (ASCC)",
		"Person.Work.Address (ASCC)",
	}
	if got := person.EntitySet(); !reflect.DeepEqual(got, wantCC) {
		t.Errorf("core component set = %v, want %v", got, wantCC)
	}
	wantBIE := []string{
		"US_Person (ABIE)",
		"US_Person.DateofBirth (BBIE)",
		"US_Person.FirstName (BBIE)",
		"US_Person.US_Private.US_Address (ASBIE)",
		"US_Person.US_Work.US_Address (ASBIE)",
	}
	if got := usPerson.EntitySet(); !reflect.DeepEqual(got, wantBIE) {
		t.Errorf("BIE set = %v, want %v", got, wantBIE)
	}
}

// TestFigure1RestrictionDropsCountry: "US_Address is missing the
// attribute Country, hence the core component Address was restricted".
func TestFigure1RestrictionDropsCountry(t *testing.T) {
	m, _, _ := buildFigure1(t)
	usAddress := m.FindABIE("US_Address")
	if usAddress == nil {
		t.Fatal("US_Address missing")
	}
	if usAddress.FindBBIE("Country") != nil {
		t.Error("US_Address must not contain Country")
	}
	if usAddress.BasedOn == nil || usAddress.BasedOn.Name != "Address" {
		t.Error("basedOn dependency broken")
	}
	if got := usAddress.Qualifier(); got != "US" {
		t.Errorf("qualifier = %q", got)
	}
}

// TestFigure2MetaModel checks the containment and derivation legality
// matrix of the meta model: which element goes in which library, and
// what derives from what.
func TestFigure2MetaModel(t *testing.T) {
	m := ccts.NewModel("Meta")
	biz := m.AddBusinessLibrary("B")
	cat, err := ccts.InstallCatalog(biz)
	if err != nil {
		t.Fatal(err)
	}
	ccLib := biz.AddLibrary(ccts.KindCCLibrary, "CC", "urn:m:cc")
	bieLib := biz.AddLibrary(ccts.KindBIELibrary, "BIE", "urn:m:bie")
	qdtLib := biz.AddLibrary(ccts.KindQDTLibrary, "QDT", "urn:m:qdt")
	enumLib := biz.AddLibrary(ccts.KindENUMLibrary, "ENUM", "urn:m:enum")

	// Containment: ACC only in CCLibrary.
	if _, err := bieLib.AddACC("X"); err == nil {
		t.Error("ACC in BIELibrary must fail")
	}
	if _, err := ccLib.AddACC("A"); err != nil {
		t.Errorf("ACC in CCLibrary: %v", err)
	}
	// ABIE depends on ACC.
	if _, err := bieLib.AddABIE("NoBase", nil); err == nil {
		t.Error("ABIE without ACC must fail")
	}
	// QDT depends on CDT.
	if _, err := qdtLib.AddQDT("NoBase", nil, ccts.Content(cat.Prim(ccts.PrimString))); err == nil {
		t.Error("QDT without CDT must fail")
	}
	// BCC uses CDT; BBIE uses CDT or QDT based on the BCC's CDT.
	acc := m.FindACC("A")
	if _, err := acc.AddBCC("Code", cat.CDT(ccts.CDTCode), ccts.One); err != nil {
		t.Fatal(err)
	}
	en, err := enumLib.AddENUM("E")
	if err != nil {
		t.Fatal(err)
	}
	en.AddLiteral("X", "x")
	qdt, err := ccts.DeriveQDT(qdtLib, cat.CDT(ccts.CDTCode), ccts.QDTRestriction{
		Name: "Q", ContentEnum: en,
	})
	if err != nil {
		t.Fatal(err)
	}
	abie, err := ccts.DeriveABIE(bieLib, acc, ccts.Restriction{
		BBIEs: []ccts.BBIEPick{{BCC: "Code", Type: qdt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// BBIE typed by a QDT of a different CDT is illegal.
	foreign, err := ccts.DeriveQDT(qdtLib, cat.CDT(ccts.CDTText), ccts.QDTRestriction{Name: "TQ"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abie.AddBBIE("Bad", acc.FindBCC("Code"), foreign, ccts.One); err == nil {
		t.Error("BBIE with foreign-CDT QDT must fail")
	}
}

// TestFigure3ProfileInventory checks the profile composition: 8 library
// stereotypes, 6 data-type stereotypes, 9 common stereotypes.
func TestFigure3ProfileInventory(t *testing.T) {
	inv := ccts.Profile()
	if len(inv.Management) != 8 {
		t.Errorf("Management = %d, want 8", len(inv.Management))
	}
	if len(inv.DataTypes) != 6 {
		t.Errorf("DataTypes = %d, want 6", len(inv.DataTypes))
	}
	if len(inv.Common) != 9 {
		t.Errorf("Common = %d, want 9", len(inv.Common))
	}
}

// TestFigure4Model builds the full EB005-HoardingPermit model and checks
// its inventory against the paper's package tree.
func TestFigure4Model(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	m := f.Model
	// Eight libraries inside one business library (the paper's tree shows
	// seven packages plus the PRIM library we install with the catalog).
	if got := len(m.Libraries()); got != 8 {
		t.Errorf("libraries = %d, want 8", got)
	}
	// Package 1: DOCLibrary with HoardingPermit (4 BBIEs, 4 ASBIEs) and
	// HoardingDetails.
	if got := len(f.DOCLib.ABIEs); got != 2 {
		t.Errorf("DOC ABIEs = %d, want 2", got)
	}
	hp := f.Permit
	if len(hp.BBIEs) != 4 || len(hp.ASBIEs) != 4 {
		t.Errorf("HoardingPermit = %d BBIEs, %d ASBIEs", len(hp.BBIEs), len(hp.ASBIEs))
	}
	// Package 2: CommonAggregates with five ABIEs.
	if got := len(f.Common.ABIEs); got != 5 {
		t.Errorf("CommonAggregates ABIEs = %d, want 5", got)
	}
	// Package 5: Application ACC with eleven BCCs.
	app := m.FindACC("Application")
	if got := len(app.BCCs); got != 11 {
		t.Errorf("Application BCCs = %d, want 11", got)
	}
	// Of the eleven, only two survive in the ABIE.
	appBIE := f.ApplicationBIE
	if got := len(appBIE.BBIEs); got != 2 {
		t.Errorf("Application ABIE BBIEs = %d, want 2", got)
	}
	// Package 6: the two enumerations with their literals.
	council := m.FindENUM("CouncilType_Code")
	if got := len(council.Literals); got != 5 {
		t.Errorf("CouncilType_Code literals = %d, want 5", got)
	}
	country := m.FindENUM("CountryType_Code")
	if got := len(country.Literals); got != 3 {
		t.Errorf("CountryType_Code literals = %d, want 3", got)
	}
	// Package 3: QDTs based on Code, content restricted by enums, only
	// CodeListName kept.
	ct := m.FindQDT("CountryType")
	if ct.BasedOn.Name != "Code" || ct.ContentEnum() != country || len(ct.Sups) != 1 {
		t.Errorf("CountryType = %+v", ct)
	}
	// The whole model validates cleanly.
	report := ccts.ValidateModel(m)
	if report.HasErrors() {
		t.Errorf("figure 4 model has validation errors: %v", report.Errors())
	}
}

// TestFigure5GeneratorOptions exercises the generator-dialog workflow:
// root element selection, annotate flag, status messages, abort on
// erroneous models.
func TestFigure5GeneratorOptions(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	// Root selection is mandatory and checked.
	if _, err := ccts.GenerateDocument(f.DOCLib, "NotThere", ccts.GenerateOptions{}); err == nil {
		t.Error("unknown root must abort")
	}
	// HoardingDetails is a valid alternative root.
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingDetails", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RootElement != "HoardingDetails" {
		t.Errorf("root = %q", res.RootElement)
	}
	// Status messages flow back.
	var msgs []string
	_, err = ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{
		Annotate: true,
		Status:   func(s string) { msgs = append(msgs, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Error("no status messages")
	}
	// Erroneous model aborts with an error message.
	f.Common.BaseURN = ""
	if _, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{}); err == nil {
		t.Error("erroneous model must abort generation")
	}
}

// TestFigure6Schema regenerates the DOCLibrary schema and checks it
// against the serialised structure of Figure 6.
func TestFigure6Schema(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Primary().String()
	for _, want := range []string{
		`targetNamespace="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"`,
		`xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"`,
		`xmlns:commonAggregates="urn:au:gov:vic:easybiz:data:draft:CommonAggregates"`,
		`xmlns:bie2="urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates"`,
		`xmlns:cdt1="un:unece:uncefact:data:standard:CDTLibrary:1.0"`,
		`elementFormDefault="qualified"`,
		`attributeFormDefault="unqualified"`,
		`<xsd:import namespace="un:unece:uncefact:data:standard:CDTLibrary:1.0"`,
		`<xsd:complexType name="HoardingPermitType">`,
		`<xsd:element minOccurs="0" name="ClosureReason" type="cdt1:TextType"/>`,
		`<xsd:element minOccurs="0" name="IsClosedRoad" type="qdt1:Indicator_CodeType"/>`,
		`<xsd:element minOccurs="0" maxOccurs="unbounded" name="IncludedAttachment" type="commonAggregates:AttachmentType"/>`,
		`<xsd:element minOccurs="0" name="CurrentApplication" type="commonAggregates:ApplicationType"/>`,
		`<xsd:element name="IncludedRegistration" type="bie2:RegistrationType"/>`,
		`<xsd:element minOccurs="0" name="BillingPerson_Identification" type="commonAggregates:Person_IdentificationType"/>`,
		`<xsd:element name="HoardingPermit" type="doc:HoardingPermitType"/>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 6 schema missing %q\n---\n%s", want, out)
		}
	}
}

// TestFigure7Schema regenerates the CommonAggregates schema and checks
// the global AssignedAddress element and its reference (Figure 7).
func TestFigure7Schema(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.Common, "", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Primary().String()
	for _, want := range []string{
		`<xsd:element name="AssignedAddress" type="commonAggregates:AddressType"/>`,
		`<xsd:complexType name="Person_IdentificationType">`,
		`<xsd:element name="Designation" type="cdt1:IdentifierType"/>`,
		`<xsd:element name="PersonalSignature" type="commonAggregates:SignatureType"/>`,
		`<xsd:element ref="commonAggregates:AssignedAddress"/>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 7 schema missing %q\n---\n%s", want, out)
		}
	}
}

// TestFigure8Schema regenerates the CDTLibrary schema and checks the
// CodeType definition (Figure 8).
func TestFigure8Schema(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.Catalog.CDTLibrary, "", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Primary().String()
	for _, want := range []string{
		`<xsd:complexType name="CodeType">`,
		`<xsd:simpleContent>`,
		`<xsd:extension base="xsd:string">`,
		`<xsd:attribute name="LanguageIdentifier" type="xsd:string" use="optional"/>`,
		`<xsd:attribute name="CodeListAgName" type="xsd:string" use="required"/>`,
		`<xsd:attribute name="CodeListName" type="xsd:string" use="required"/>`,
		`<xsd:attribute name="CodeListSchemeURI" type="xsd:string" use="required"/>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 8 schema missing %q\n---\n%s", want, out)
		}
	}
}

// TestEndToEndMessageValidation closes the paper's loop: model -> schema
// -> validated XML message.
func TestEndToEndMessageValidation(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ccts.CompileSchemas(res)
	if err != nil {
		t.Fatal(err)
	}
	msg := `<doc:HoardingPermit
	    xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"
	    xmlns:ll="urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates">
	  <doc:IncludedRegistration><ll:Type>local</ll:Type></doc:IncludedRegistration>
	</doc:HoardingPermit>`
	vr, err := set.ValidateString(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Valid() {
		t.Errorf("minimal message rejected: %v", vr.Errors)
	}
	bad := strings.Replace(msg, "<doc:IncludedRegistration><ll:Type>local</ll:Type></doc:IncludedRegistration>", "", 1)
	vr2, err := set.ValidateString(bad)
	if err != nil {
		t.Fatal(err)
	}
	if vr2.Valid() {
		t.Error("message without mandatory registration accepted")
	}
}

// TestXMIRoundTripPublic checks the model-level XMI workflow.
func TestXMIRoundTripPublic(t *testing.T) {
	m, _, usPerson := buildFigure1(t)
	var buf bytes.Buffer
	if err := ccts.ExportXMI(m, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ccts.ImportXMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.FindABIE("US_Person")
	if got == nil {
		t.Fatal("US_Person lost")
	}
	if !reflect.DeepEqual(got.EntitySet(), usPerson.EntitySet()) {
		t.Errorf("entity set changed: %v", got.EntitySet())
	}
}
