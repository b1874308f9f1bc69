package rdfs

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
)

// generateModel renders m under the modelled namespaces.
func generateModel(m *core.Model) (string, error) {
	doc, err := render(m, nil, func(lib *core.Library) string { return lib.BaseURN })
	return string(doc), err
}

func generate(t *testing.T) string {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	out, err := generateModel(f.Model)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateStructure(t *testing.T) {
	out := generate(t)
	for _, want := range []string{
		`<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#">`,
		// ACC -> class with DEN label.
		`<rdfs:Class rdf:about="urn:au:gov:vic:easybiz:components:draft:CandidateCoreComponents#Permit">`,
		`<rdfs:label>Permit. Details</rdfs:label>`,
		// ABIE -> class subClassOf its ACC.
		`<rdfs:Class rdf:about="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit#HoardingPermit">`,
		`<rdfs:subClassOf rdf:resource="urn:au:gov:vic:easybiz:components:draft:CandidateCoreComponents#Permit"/>`,
		// BBIE -> property with domain and datatype range.
		`<rdf:Property rdf:about="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit#HoardingPermit.closureReason">`,
		`<rdfs:domain rdf:resource="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit#HoardingPermit"/>`,
		`<rdfs:range rdf:resource="un:unece:uncefact:data:standard:CDTLibrary:1.0#Text"/>`,
		// ASBIE -> property with class range.
		`<rdf:Property rdf:about="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit#HoardingPermit.billing">`,
		`<rdfs:range rdf:resource="urn:au:gov:vic:easybiz:data:draft:CommonAggregates#Person_Identification"/>`,
		// CDT -> datatype; QDT -> datatype subclassing it.
		`<rdfs:Datatype rdf:about="un:unece:uncefact:data:standard:CDTLibrary:1.0#Code">`,
		`<rdfs:Datatype rdf:about="urn:au:gov:vic:easybiz:types:draft:QualifiedDataTypes#CountryType">`,
		`<rdfs:subClassOf rdf:resource="un:unece:uncefact:data:standard:CDTLibrary:1.0#Code"/>`,
		// ENUM -> class plus typed individuals labelled with the value.
		`<rdfs:Class rdf:about="urn:au:gov:vic:easybiz:types:draft:EnumerationTypes#CountryType_Code">`,
		`<rdf:Description rdf:about="urn:au:gov:vic:easybiz:types:draft:EnumerationTypes#CountryType_Code.AUT">`,
		`<rdfs:label>Austria</rdfs:label>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vocabulary missing %q", want)
		}
	}
}

func TestWellFormedXML(t *testing.T) {
	out := generate(t)
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("not well-formed: %v", err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	if generate(t) != generate(t) {
		t.Error("RDF generation not deterministic")
	}
}

func TestGenerateErrors(t *testing.T) {
	m := core.NewModel("X")
	biz := m.AddBusinessLibrary("B")
	biz.AddLibrary(core.KindCCLibrary, "NoURN", "")
	if _, err := generateModel(m); err == nil {
		t.Error("missing baseURN must fail")
	}
}

func TestPropertyName(t *testing.T) {
	cases := map[string]string{
		"ClosureReason": "closureReason",
		"a":             "a",
		"":              "",
		"URL":           "uRL",
	}
	for in, want := range cases {
		var b bytes.Buffer
		b.WriteString(writeLowerFirst(&b, in))
		if got := b.String(); got != want {
			t.Errorf("writeLowerFirst(%q) wrote %q, want %q", in, got, want)
		}
	}
}

func TestEscaping(t *testing.T) {
	m := core.NewModel("X")
	biz := m.AddBusinessLibrary("B")
	lib := biz.AddLibrary(core.KindCCLibrary, "L", "urn:l")
	acc, err := lib.AddACC("Thing")
	if err != nil {
		t.Fatal(err)
	}
	acc.Definition = `uses <angle> & "quotes"`
	out, err := generateModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "uses &lt;angle&gt; &amp; &quot;quotes&quot;") {
		t.Errorf("escaping broken:\n%s", out)
	}
}

// TestValuesReadBack generates a vocabulary whose resource URIs, labels
// and comments hold characters Go quoting would mangle, and reads them
// back with encoding/xml.
func TestValuesReadBack(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	const def, label, urn = "C:\\dir\u00a0x\ttab\nline", "a\\b\u00a0&<\">", "urn:a\\b\u00a0c"
	f.Permit.Definition = def
	f.Model.FindENUM("CountryType_Code").Literals[0].Value = label
	f.DOCLib.BaseURN = urn
	doc, err := generateModel(f.Model)
	if err != nil {
		t.Fatal(err)
	}
	attrs, text := map[string]bool{}, map[string]bool{}
	d := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := d.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%v in:\n%s", err, doc)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			for _, a := range tok.Attr {
				attrs[a.Value] = true
			}
		case xml.CharData:
			text[string(tok)] = true
		}
	}
	if want := urn + "#HoardingPermit"; !attrs[want] {
		t.Errorf("resource %q not read back", want)
	}
	for _, want := range []string{def, label} {
		if !text[want] {
			t.Errorf("text %q not read back", want)
		}
	}
}
