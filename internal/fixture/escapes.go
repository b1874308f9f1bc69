package fixture

import (
	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/uml"
)

// Escapes holds a small document model whose names, definitions,
// literal values and namespaces carry the characters every backend must
// escape or sanitise: markup and quote characters, an ampersand and
// non-ASCII letters in a namespace, names that start with an upper-case
// non-ASCII letter, acronym/digit/underscore names, U+2028, U+2029, a C0
// control and multi-line definitions. Literal values carry no line
// breaks.
type Escapes struct {
	Model  *core.Model
	DOCLib *core.Library
	Root   *core.ABIE
}

// BuildEscapes constructs the escapes model: an enumeration and a QDT
// restricting Code to it, the ACCs Élan and Partner, a BIE library whose
// baseURN holds "&" and "ß", and the DOC library rooted at Élan.
func BuildEscapes() (*Escapes, error) {
	m := core.NewModel("Escapes")
	biz := m.AddBusinessLibrary("Escapes")
	cat, err := catalog.Install(biz)
	if err != nil {
		return nil, err
	}
	enumLib := biz.AddLibrary(core.KindENUMLibrary, "EscEnums", "urn:esc:enums")
	enumLib.Version = "1.0"
	qdtLib := biz.AddLibrary(core.KindQDTLibrary, "EscTypes", "urn:esc:types")
	qdtLib.Version = "1.0"
	ccLib := biz.AddLibrary(core.KindCCLibrary, "EscCC", "urn:esc:cc")
	ccLib.Version = "1.0"
	bieLib := biz.AddLibrary(core.KindBIELibrary, "EscBIE", "urn:esc:bie?a=1&b=Straße")
	bieLib.Version = "1.0"
	docLib := biz.AddLibrary(core.KindDOCLibrary, "EscDoc", "urn:esc:doc:Ökonomie")
	docLib.Version = "1.0"

	size, err := enumLib.AddENUM("Größe_Code")
	if err != nil {
		return nil, err
	}
	size.Definition = "Sizes <S>, <M> & <L>\nas \"quoted\" 'labels'"
	size.AddLiteral("R&D", `Research & Development <R&D>`).
		AddLiteral("Quote", `say "hi" & 'bye'`).
		AddLiteral("Tag", "<b>bold</b> été")
	sizeType, err := core.DeriveQDT(qdtLib, cat.CDT(catalog.CDTCode), core.QDTRestriction{
		Name:        "Größe",
		ContentEnum: size,
	})
	if err != nil {
		return nil, err
	}
	sizeType.Definition = "A size\u2028after a line separator\u2029after a paragraph separator"

	partner, err := ccLib.AddACC("Partner")
	if err != nil {
		return nil, err
	}
	partner.Definition = "Partner <of> the \"Élan\" & co."
	if _, err := partner.AddBCC("Name", cat.CDT(catalog.CDTText), card1); err != nil {
		return nil, err
	}
	elan, err := ccLib.AddACC("Élan")
	if err != nil {
		return nil, err
	}
	elan.Definition = "First line with <tags> & \"quotes\" and 'apostrophes'\nSecond line\x01with a control"
	if _, err := elan.AddBCC("Größe", cat.CDT(catalog.CDTCode), card01); err != nil {
		return nil, err
	}
	if _, err := elan.AddBCC("VATNumber2_Code", cat.CDT(catalog.CDTText), card0N); err != nil {
		return nil, err
	}
	if _, err := elan.AddASCC("Äußere", partner, card1, uml.AggregationComposite); err != nil {
		return nil, err
	}

	partnerBIE, err := core.DeriveABIE(bieLib, partner, core.Restriction{
		BBIEs: []core.BBIEPick{{BCC: "Name"}},
	})
	if err != nil {
		return nil, err
	}
	partnerBIE.Definition = "A partner <with> \"markup\" & 'quotes'\n\tindented second line"
	root, err := core.DeriveABIE(docLib, elan, core.Restriction{
		BBIEs: []core.BBIEPick{
			{BCC: "Größe", Type: sizeType},
			{BCC: "VATNumber2_Code"},
		},
		ASBIEs: []core.ASBIEPick{{Role: "Äußere", Target: partnerBIE}},
	})
	if err != nil {
		return nil, err
	}
	root.Definition = elan.Definition + "\u2028\u2029\x1f end"
	return &Escapes{Model: m, DOCLib: docLib, Root: root}, nil
}
