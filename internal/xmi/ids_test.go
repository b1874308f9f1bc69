package xmi

import (
	"errors"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/limits"
)

// idsDoc is a two-class library whose association and dependency
// reference the classes by xmi:id; classID2 and target are spliced in.
func idsDoc(classID2, target string) string {
	return `<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
  <uml:Model xmi:id="model" name="M">
    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="Lib" stereotype="BIELibrary">
      <packagedElement xmi:type="uml:Class" xmi:id="c1" name="Whole" stereotype="ABIE"/>
      <packagedElement xmi:type="uml:Class" xmi:id="c2" name="First" stereotype="ABIE"/>
      <packagedElement xmi:type="uml:Class" xmi:id="` + classID2 + `" name="Second" stereotype="ABIE"/>
      <packagedElement xmi:type="uml:Association" xmi:id="a1" stereotype="ASBIE" role="Part" source="c1" target="` + target + `" lower="1" upper="1" aggregation="composite"/>
    </packagedElement>
  </uml:Model>
</xmi:XMI>`
}

// TestDuplicateIDStrict: a repeated xmi:id fails the strict import at
// the element that repeats it.
func TestDuplicateIDStrict(t *testing.T) {
	_, err := ImportString(idsDoc("c2", "c2"))
	var pe *limits.PosError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a positioned error", err)
	}
	if pe.Line != 6 || !strings.Contains(err.Error(), `duplicate xmi:id "c2"`) {
		t.Errorf("err = %v, want duplicate xmi:id at line 6", err)
	}
}

// TestDuplicateIDLenient: the lenient import reports the repeat as
// XMI-REF and keeps the first element under the id, so references bind
// to it.
func TestDuplicateIDLenient(t *testing.T) {
	m, diags, err := ImportWithOptions(strings.NewReader(idsDoc("c2", "c2")), ImportOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	want := Diagnostic{Rule: "XMI-REF", Element: "Second", Message: `duplicate xmi:id "c2"`, Line: 6, Col: 90}
	if len(diags) != 1 || diags[0] != want {
		t.Fatalf("diagnostics = %v, want [%v]", diags, want)
	}
	a := m.Packages[0].Associations[0]
	if a.Target == nil || a.Target.Name != "First" {
		t.Errorf("association target = %v, want the first class with id c2", a.Target)
	}
}

// TestEmptyIDReference: an empty id is never registered, so an empty
// reference is a dangling one even when an element carries xmi:id="".
func TestEmptyIDReference(t *testing.T) {
	doc := idsDoc("", "")
	_, err := ImportString(doc)
	if err == nil || !strings.Contains(err.Error(), `association target references unknown id ""`) {
		t.Fatalf("err = %v, want an unknown-id error", err)
	}
	m, diags, err := ImportWithOptions(strings.NewReader(doc), ImportOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Rule != "XMI-REF" || !strings.Contains(diags[0].Message, `unknown id ""`) {
		t.Errorf("diagnostics = %v, want one XMI-REF unknown id", diags)
	}
	if n := len(m.Packages[0].Associations); n != 0 {
		t.Errorf("%d associations kept, want the dangling one dropped", n)
	}
}
