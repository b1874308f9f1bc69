package ndr

import (
	"testing"

	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
)

func TestXSDBuiltin(t *testing.T) {
	f := fixture.MustBuildFigure1()
	cases := map[string]string{
		catalog.PrimString:       "xsd:string",
		catalog.PrimBoolean:      "xsd:boolean",
		catalog.PrimInteger:      "xsd:integer",
		catalog.PrimDecimal:      "xsd:decimal",
		catalog.PrimDouble:       "xsd:double",
		catalog.PrimFloat:        "xsd:float",
		catalog.PrimBinary:       "xsd:base64Binary",
		catalog.PrimTimeDuration: "xsd:duration",
		catalog.PrimTimePoint:    "xsd:dateTime",
	}
	for prim, want := range cases {
		if got := XSDBuiltin(f.Catalog.Prim(prim)); got != want {
			t.Errorf("XSDBuiltin(%s) = %q, want %q", prim, got, want)
		}
	}
	if got := XSDBuiltin(&core.PRIM{Name: "Custom"}); got != "xsd:string" {
		t.Errorf("unknown primitive = %q, want xsd:string fallback", got)
	}
}

func TestPrefixAllocator(t *testing.T) {
	f := fixture.MustBuildHoardingPermit()
	p := NewPrefixAllocator()
	// First CDT library: cdt1. User prefixes win but advance the family
	// counter, so the second BIE library is bie2 — Figure 6.
	if got := p.Prefix(f.Catalog.CDTLibrary); got != "cdt1" {
		t.Errorf("CDT prefix = %q", got)
	}
	if got := p.Prefix(f.QDTLib); got != "qdt1" {
		t.Errorf("QDT prefix = %q", got)
	}
	if got := p.Prefix(f.Common); got != "commonAggregates" {
		t.Errorf("CommonAggregates prefix = %q", got)
	}
	if got := p.Prefix(f.Local); got != "bie2" {
		t.Errorf("LocalLaw prefix = %q", got)
	}
	if got := p.Prefix(f.DOCLib); got != "doc" {
		t.Errorf("DOC prefix = %q", got)
	}
	// Stable across calls.
	if p.Prefix(f.Common) != "commonAggregates" || p.Prefix(f.Local) != "bie2" {
		t.Error("prefixes not stable")
	}
}

func TestPrefixAllocatorClash(t *testing.T) {
	m := core.NewModel("X")
	biz := m.AddBusinessLibrary("B")
	a := biz.AddLibrary(core.KindBIELibrary, "A", "urn:a")
	a.NamespacePrefix = "shared"
	b := biz.AddLibrary(core.KindBIELibrary, "B", "urn:b")
	b.NamespacePrefix = "shared"
	p := NewPrefixAllocator()
	pa, pb := p.Prefix(a), p.Prefix(b)
	if pa == pb {
		t.Errorf("clashing prefixes not disambiguated: %q vs %q", pa, pb)
	}
	if pa != "shared" {
		t.Errorf("first library should keep its prefix, got %q", pa)
	}
}

func TestAnnotations(t *testing.T) {
	f := fixture.MustBuildHoardingPermit()
	ix := core.NewModelIndex(f.Model)
	abie := f.Permit
	ann := ABIEAnnotation(ix, abie)
	tags := map[string]string{}
	for _, d := range ann.Documentation {
		tags[d.Tag] = d.Value
	}
	if tags["ComponentType"] != "ABIE" {
		t.Errorf("ComponentType = %q", tags["ComponentType"])
	}
	// Version falls back to the library version.
	if tags["Version"] != "0.4" {
		t.Errorf("Version = %q", tags["Version"])
	}
	if tags["BasedOnACC"] != "Permit. Details" {
		t.Errorf("BasedOnACC = %q", tags["BasedOnACC"])
	}

	bbie := abie.BBIEs[0]
	bann := BBIEAnnotation(ix, bbie)
	found := false
	for _, d := range bann.Documentation {
		if d.Tag == "Cardinality" && d.Value == "0..1" {
			found = true
		}
	}
	if !found {
		t.Errorf("BBIE annotation missing cardinality: %+v", bann.Documentation)
	}

	asbie := abie.ASBIEs[0]
	aann := ASBIEAnnotation(ix, asbie)
	if len(aann.Documentation) == 0 {
		t.Error("ASBIE annotation empty")
	}

	cdt := f.Catalog.CDT(catalog.CDTCode)
	cann := CDTAnnotation(nil, cdt) // nil index derives the DEN on the fly
	hasDEN := false
	for _, d := range cann.Documentation {
		if d.Tag == "DictionaryEntryName" && d.Value == "Code. Type" {
			hasDEN = true
		}
	}
	if !hasDEN {
		t.Errorf("CDT annotation DEN missing: %+v", cann.Documentation)
	}

	qdt := f.Model.FindQDT("CountryType")
	qann := QDTAnnotation(ix, qdt)
	hasBase := false
	for _, d := range qann.Documentation {
		if d.Tag == "BasedOnCDT" && d.Value == "Code. Type" {
			hasBase = true
		}
	}
	if !hasBase {
		t.Errorf("QDT annotation BasedOnCDT missing: %+v", qann.Documentation)
	}

	e := f.Model.FindENUM("CountryType_Code")
	if len(ENUMAnnotation(e).Documentation) == 0 {
		t.Error("ENUM annotation empty")
	}
}
