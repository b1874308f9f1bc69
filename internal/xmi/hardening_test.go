package xmi

import (
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/faultio"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
)

func exportFixture(t *testing.T) string {
	t.Helper()
	hp := fixture.MustBuildHoardingPermit()
	return ExportString(profile.Render(hp.Model))
}

// TestImportTruncatedStream: a reader that dies mid-document surfaces
// as a structured error, never a panic or a silent partial model.
func TestImportTruncatedStream(t *testing.T) {
	doc := exportFixture(t)
	// Cuts past </uml:Model> are undetectable (the importer is done by
	// then), so the latest cut lands just inside the model's close tag.
	end := int64(strings.LastIndex(doc, "</uml:Model>") + 3)
	for _, cut := range []int64{1, 64, int64(len(doc) / 2), end} {
		r := &faultio.Reader{R: strings.NewReader(doc), Limit: cut}
		m, err := Import(r)
		if err == nil {
			t.Errorf("cut at %d: want error, got model %v", cut, m)
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.Contains(err.Error(), "EOF") {
			t.Errorf("cut at %d: err = %v, want unexpected-EOF flavour", cut, err)
		}
	}
}

// TestImportDepthLimit: nesting past MaxDepth aborts with a positioned
// limit violation.
func TestImportDepthLimit(t *testing.T) {
	// The deep subtree hangs off an element the lenient importer skips,
	// so the decoder's depth check — not element dispatch — must stop it.
	doc := `<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1">` +
		strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50) + `</xmi:XMI>`
	_, _, err := ImportWithOptions(strings.NewReader(doc), ImportOptions{
		Limits:  limits.Limits{MaxDepth: 5},
		Lenient: true,
	})
	if !errors.Is(err, limits.ErrLimit) {
		t.Fatalf("err = %v, want limits.ErrLimit", err)
	}
	var v *limits.Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want *limits.Violation", err)
	}
	if v.Limit != "MaxDepth" || v.Line <= 0 || v.Col <= 0 {
		t.Errorf("violation = %+v", v)
	}
}

// TestImportByteLimit: input larger than MaxInputBytes aborts.
func TestImportByteLimit(t *testing.T) {
	doc := exportFixture(t)
	_, _, err := ImportWithOptions(strings.NewReader(doc), ImportOptions{
		Limits: limits.Limits{MaxInputBytes: 128},
	})
	if !errors.Is(err, limits.ErrLimit) {
		t.Fatalf("err = %v, want limits.ErrLimit", err)
	}
}

// TestImportRejectsDTD: DOCTYPE (and with it entity expansion) is
// rejected outright by the default import path.
func TestImportRejectsDTD(t *testing.T) {
	doc := `<?xml version="1.0"?><!DOCTYPE x [<!ENTITY e "x">]>` +
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1"><uml:Model xmi:id="m" name="X" xmlns:uml="http://schema.omg.org/spec/UML/2.1"/></xmi:XMI>`
	_, err := ImportString(doc)
	if !errors.Is(err, limits.ErrDTD) {
		t.Fatalf("err = %v, want limits.ErrDTD", err)
	}
}

// TestImportStrictPositionalErrors: strict mode reports defects with
// source positions instead of bare messages.
func TestImportStrictPositionalErrors(t *testing.T) {
	doc := `<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
  <uml:Model xmi:id="m" name="X">
    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="Lib" stereotype="CCLibrary">
      <packagedElement xmi:type="uml:Dependency" xmi:id="d1" stereotype="basedOn" client="p1" supplier="gone"/>
    </packagedElement>
  </uml:Model>
</xmi:XMI>`
	_, err := ImportString(doc)
	if err == nil {
		t.Fatal("dangling supplier must fail the strict import")
	}
	var pe *limits.PosError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *limits.PosError", err)
	}
	if pe.Line != 4 {
		t.Errorf("error line = %d, want 4 (%v)", pe.Line, err)
	}
}

// TestImportLimitsRoundTripUnaffected: the default limits admit every
// document the exporter produces.
func TestImportLimitsRoundTripUnaffected(t *testing.T) {
	doc := exportFixture(t)
	if _, err := ImportString(doc); err != nil {
		t.Fatalf("default limits reject exporter output: %v", err)
	}
}

// TestLenientImportRejectsMalformedBounds: a multiplicity bound with
// trailing characters, another base or an overflow is diagnosed as
// XMI-MULT instead of being read as a prefix of its digits, and the
// element falls back to 1..1.
func TestLenientImportRejectsMalformedBounds(t *testing.T) {
	for _, bounds := range [][2]string{{"1.5", "1"}, {"0x10", "1"}, {"1x", "1"}, {"1_0", "1"}, {"0", "2x"}, {"0", "99999999999999999999"}} {
		doc := `<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">
  <uml:Model xmi:id="model" name="M">
    <packagedElement xmi:type="uml:Package" xmi:id="p1" name="Lib" stereotype="CCLibrary">
      <packagedElement xmi:type="uml:Class" xmi:id="c1" name="Part" stereotype="ACC">
        <ownedAttribute xmi:id="a1" name="Name" stereotype="BCC" type="String" lower="` + bounds[0] + `" upper="` + bounds[1] + `"/>
      </packagedElement>
    </packagedElement>
  </uml:Model>
</xmi:XMI>`
		m, diags, err := ImportWithOptions(strings.NewReader(doc), ImportOptions{Lenient: true})
		if err != nil {
			t.Fatalf("%v: lenient import aborted: %v", bounds, err)
		}
		if len(diags) != 1 || diags[0].Rule != "XMI-MULT" {
			t.Errorf("%v: diagnostics = %v, want one XMI-MULT", bounds, diags)
		}
		if a := m.FindClass("Part").Attributes[0]; a.Mult != uml.One {
			t.Errorf("%v: multiplicity = %v, want the 1..1 fallback", bounds, a.Mult)
		}
	}
}
