package ccts_test

import (
	"bytes"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

// defectiveXMI is a small document with five seeded defects:
//
//  1. an unknown class stereotype "Gadget" (XMI-STEREO)
//  2. a taggedValue without a tag name (XMI-TAG)
//  3. a malformed multiplicity lower bound (XMI-MULT)
//  4. an association whose target ID dangles (XMI-REF)
//  5. a dependency whose supplier ID dangles (XMI-REF)
const defectiveXMI = `<?xml version="1.0" encoding="UTF-8"?>
<xmi:XMI xmi:version="2.1" xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
  <uml:Model xmi:id="model" name="Defects">
    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="Lib" stereotype="CCLibrary">
      <taggedValue tag="baseURN" value="urn:test:defects"/>
      <packagedElement xmi:type="uml:Class" xmi:id="c1" name="Widget" stereotype="Gadget"/>
      <packagedElement xmi:type="uml:Class" xmi:id="c2" name="Part" stereotype="ACC">
        <taggedValue value="orphan"/>
        <ownedAttribute xmi:id="a1" name="Name" stereotype="BCC" type="String" lower="banana" upper="1"/>
      </packagedElement>
      <packagedElement xmi:type="uml:Association" xmi:id="as1" stereotype="ASCC" source="c2" target="missing" role="Lost" aggregation="shared"/>
      <packagedElement xmi:type="uml:Dependency" xmi:id="d1" stereotype="basedOn" client="c2" supplier="gone"/>
    </packagedElement>
  </uml:Model>
</xmi:XMI>`

// TestImportXMIDiagnostics is the acceptance test of the lenient import
// path: a document with five seeded defects yields a partial model plus
// one positioned finding per defect.
func TestImportXMIDiagnostics(t *testing.T) {
	um, report, err := ccts.ImportXMIDiagnostics(strings.NewReader(defectiveXMI))
	if err != nil {
		t.Fatalf("lenient import aborted: %v", err)
	}
	if um == nil {
		t.Fatal("no partial model returned")
	}
	if len(um.Packages) != 1 || len(um.Packages[0].Classes) != 2 {
		t.Fatalf("partial model shape wrong: %+v", um.Packages)
	}

	wantRules := map[string]int{
		"XMI-STEREO": 1, // unknown class stereotype Gadget
		"XMI-TAG":    1, // taggedValue without tag name
		"XMI-MULT":   1, // lower="banana"
		"XMI-REF":    2, // dangling association target + dependency supplier
	}
	got := map[string]int{}
	for _, f := range report.Findings {
		got[f.Rule]++
		if f.Line <= 0 || f.Col <= 0 {
			t.Errorf("finding %v lacks a source position", f)
		}
		if f.Severity != ccts.SeverityError {
			t.Errorf("finding %v severity = %v, want error", f, f.Severity)
		}
	}
	for rule, n := range wantRules {
		if got[rule] != n {
			t.Errorf("rule %s: %d finding(s), want %d; all: %v", rule, got[rule], n, report.Findings)
		}
	}
	if len(report.Findings) != 5 {
		t.Errorf("findings = %d, want 5: %v", len(report.Findings), report.Findings)
	}

	// The defective association and dependency were dropped from the
	// partial model, so downstream passes never see dangling ends.
	pkg := um.Packages[0]
	if len(pkg.Associations) != 0 {
		t.Errorf("dangling association kept: %+v", pkg.Associations)
	}
	if len(pkg.Dependencies) != 0 {
		t.Errorf("dangling dependency kept: %+v", pkg.Dependencies)
	}

	// Findings render with their position.
	var sawPos bool
	for _, f := range report.Findings {
		if strings.Contains(f.String(), "(at ") {
			sawPos = true
		}
	}
	if !sawPos {
		t.Error("no finding renders its position")
	}
}

// TestImportXMIDiagnosticsCleanDocument: a well-formed export round
// trips with zero findings.
func TestImportXMIDiagnosticsCleanDocument(t *testing.T) {
	const clean = `<?xml version="1.0" encoding="UTF-8"?>
<xmi:XMI xmi:version="2.1" xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
  <uml:Model xmi:id="model" name="Clean">
    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="Lib" stereotype="CCLibrary">
      <taggedValue tag="baseURN" value="urn:test:clean"/>
      <packagedElement xmi:type="uml:Class" xmi:id="c1" name="Part" stereotype="ACC">
        <ownedAttribute xmi:id="a1" name="Name" stereotype="BCC" type="String" lower="1" upper="1"/>
      </packagedElement>
    </packagedElement>
  </uml:Model>
</xmi:XMI>`
	um, report, err := ccts.ImportXMIDiagnostics(strings.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if um == nil || len(report.Findings) != 0 {
		t.Fatalf("clean document produced findings: %v", report.Findings)
	}
}

// TestImportXMIDiagnosticsStillAbortsOnBrokenXML: stream-level failures
// are not downgraded to findings.
func TestImportXMIDiagnosticsStillAbortsOnBrokenXML(t *testing.T) {
	_, _, err := ccts.ImportXMIDiagnostics(strings.NewReader("<xmi:XMI"))
	if err == nil {
		t.Fatal("broken XML must abort the lenient import too")
	}
}

// TestXMIRoundTripKeepsBackslashesAndControls exports and re-imports a
// model whose ABIE definition holds a backslash and a no-break space:
// three round trips must return the definition unchanged, because XML
// attribute values are escaped for XML, not Go-quoted.
func TestXMIRoundTripKeepsBackslashesAndControls(t *testing.T) {
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	const def = "C:\\dir\u00a0x\ttab\nline"
	f.Permit.Definition = def
	m := f.Model
	for trip := 1; trip <= 3; trip++ {
		var buf bytes.Buffer
		if err := ccts.ExportXMI(m, &buf); err != nil {
			t.Fatal(err)
		}
		if m, err = ccts.ImportXMI(&buf); err != nil {
			t.Fatalf("round trip %d: %v", trip, err)
		}
		if got := m.FindABIE(f.Permit.Name).Definition; got != def {
			t.Fatalf("round trip %d: definition = %q, want %q", trip, got, def)
		}
	}
}
