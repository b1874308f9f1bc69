// Package ndr implements the parts of the UN/CEFACT XML Naming and
// Design Rules, as applied by the paper's XSD generator (Section 4), that
// go beyond naming single model elements: user-defined and auto-numbered
// namespace prefixes (cdt1, qdt1, bie2, ...), the primitive-to-XSD-builtin
// mapping and the CCTS annotation blocks.
//
// The naming primitives themselves (XML names, the "Type" suffix,
// compound ASBIE element names, attribute use, schema file names and
// locations) live in internal/core, next to the typed model, where the
// Resolve phase memoizes them in a core.ModelIndex; callers use them
// there.
package ndr

import (
	"fmt"

	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/xsd"
)

// primToXSD maps CCTS primitives to XML Schema built-in types ("Where
// primitive types are needed (String, Integer ...) the build-in types of
// the XSD schema are taken").
var primToXSD = map[string]string{
	catalog.PrimBinary:       "xsd:base64Binary",
	catalog.PrimBoolean:      "xsd:boolean",
	catalog.PrimDecimal:      "xsd:decimal",
	catalog.PrimDouble:       "xsd:double",
	catalog.PrimFloat:        "xsd:float",
	catalog.PrimInteger:      "xsd:integer",
	catalog.PrimString:       "xsd:string",
	catalog.PrimTimeDuration: "xsd:duration",
	catalog.PrimTimePoint:    "xsd:dateTime",
}

// XSDBuiltin returns the XML Schema built-in type for a CCTS primitive.
// Unknown primitives map to xsd:string, the most permissive value space.
func XSDBuiltin(prim *core.PRIM) string {
	if t, ok := primToXSD[prim.Name]; ok {
		return t
	}
	return "xsd:string"
}

// ContentBuiltin returns the XSD built-in for a CDT's content component.
// The representation term refines the TimePoint primitive: the Date and
// Time CDTs (secondary representation terms of Date Time) map to xsd:date
// and xsd:time rather than xsd:dateTime, per the NDR.
func ContentBuiltin(cdt *core.CDT) string {
	prim, ok := cdt.Content.Type.(*core.PRIM)
	if !ok {
		return "xsd:string"
	}
	if prim.Name == catalog.PrimTimePoint {
		switch cdt.Name {
		case catalog.CDTDate:
			return "xsd:date"
		case catalog.CDTTime:
			return "xsd:time"
		}
	}
	return XSDBuiltin(prim)
}

// prefixFamily names the auto-prefix family per library kind; the number
// appended "is generated automatically to distinguish between multiple
// ... schemas imported into a DOCLibrary schema" (bie2 in Figure 6).
var prefixFamily = map[core.LibraryKind]string{
	core.KindCCLibrary:   "cc",
	core.KindBIELibrary:  "bie",
	core.KindCDTLibrary:  "cdt",
	core.KindQDTLibrary:  "qdt",
	core.KindENUMLibrary: "enum",
	core.KindPRIMLibrary: "prim",
	core.KindDOCLibrary:  "doc",
}

// PrefixAllocator assigns namespace prefixes to libraries during one
// generation run. A library's user-chosen NamespacePrefix tagged value
// wins; otherwise the family prefix with a per-family counter is used.
// The counter advances for user-prefixed libraries too, which is what
// makes the paper's LocalLawAggregates come out as bie2 although
// CommonAggregates uses a user prefix.
type PrefixAllocator struct {
	counters map[string]int
	assigned map[*core.Library]string
	used     map[string]bool
}

// NewPrefixAllocator returns an empty allocator.
func NewPrefixAllocator() *PrefixAllocator {
	return &PrefixAllocator{
		counters: map[string]int{},
		assigned: map[*core.Library]string{},
		used:     map[string]bool{},
	}
}

// Prefix returns the stable prefix for the library, assigning one on
// first use.
func (p *PrefixAllocator) Prefix(lib *core.Library) string {
	if pre, ok := p.assigned[lib]; ok {
		return pre
	}
	family := prefixFamily[lib.Kind]
	p.counters[family]++
	pre := lib.NamespacePrefix
	if pre == "" {
		pre = fmt.Sprintf("%s%d", family, p.counters[family])
	}
	// Disambiguate clashes (two libraries declaring the same user
	// prefix).
	for p.used[pre] {
		p.counters[family]++
		pre = fmt.Sprintf("%s%d", family, p.counters[family])
	}
	p.used[pre] = true
	p.assigned[lib] = pre
	return pre
}

// The CCTS standard prescribes annotation fields per element type; the
// generator emits them when annotations are enabled. "An ABIE for
// instance, amongst others, has two mandatory annotation fields Version
// and Definition." The annotation builders take the resolve-phase
// ModelIndex to reuse memoized dictionary entry names; a nil index is
// allowed and derives the DENs on the fly.

// ABIEAnnotation builds the CCTS documentation block of an ABIE type.
func ABIEAnnotation(ix *core.ModelIndex, abie *core.ABIE) *xsd.Annotation {
	version := abie.Version
	if version == "" && abie.Library() != nil {
		version = abie.Library().Version
	}
	entries := []xsd.DocEntry{
		{Tag: "ComponentType", Value: "ABIE"},
		{Tag: "DictionaryEntryName", Value: ix.DEN(abie)},
		{Tag: "Version", Value: version},
		{Tag: "Definition", Value: abie.Definition},
	}
	if abie.BasedOn != nil {
		entries = append(entries, xsd.DocEntry{Tag: "BasedOnACC", Value: ix.DEN(abie.BasedOn)})
	}
	return &xsd.Annotation{Documentation: entries}
}

// BBIEAnnotation builds the CCTS documentation block of a BBIE element.
func BBIEAnnotation(ix *core.ModelIndex, bbie *core.BBIE) *xsd.Annotation {
	return &xsd.Annotation{Documentation: []xsd.DocEntry{
		{Tag: "ComponentType", Value: "BBIE"},
		{Tag: "DictionaryEntryName", Value: ix.DEN(bbie)},
		{Tag: "Cardinality", Value: bbie.Card.String()},
		{Tag: "Definition", Value: bbie.Definition},
	}}
}

// ASBIEAnnotation builds the CCTS documentation block of an ASBIE
// element.
func ASBIEAnnotation(ix *core.ModelIndex, asbie *core.ASBIE) *xsd.Annotation {
	return &xsd.Annotation{Documentation: []xsd.DocEntry{
		{Tag: "ComponentType", Value: "ASBIE"},
		{Tag: "DictionaryEntryName", Value: ix.DEN(asbie)},
		{Tag: "Cardinality", Value: asbie.Card.String()},
		{Tag: "Definition", Value: asbie.Definition},
	}}
}

// CDTAnnotation builds the CCTS documentation block of a CDT type.
func CDTAnnotation(ix *core.ModelIndex, cdt *core.CDT) *xsd.Annotation {
	return &xsd.Annotation{Documentation: []xsd.DocEntry{
		{Tag: "ComponentType", Value: "CDT"},
		{Tag: "DictionaryEntryName", Value: ix.DEN(cdt)},
		{Tag: "Definition", Value: cdt.Definition},
	}}
}

// QDTAnnotation builds the CCTS documentation block of a QDT type.
func QDTAnnotation(ix *core.ModelIndex, qdt *core.QDT) *xsd.Annotation {
	entries := []xsd.DocEntry{
		{Tag: "ComponentType", Value: "QDT"},
		{Tag: "DictionaryEntryName", Value: ix.DEN(qdt)},
		{Tag: "Definition", Value: qdt.Definition},
	}
	if qdt.BasedOn != nil {
		entries = append(entries, xsd.DocEntry{Tag: "BasedOnCDT", Value: ix.DEN(qdt.BasedOn)})
	}
	return &xsd.Annotation{Documentation: entries}
}

// ENUMAnnotation builds the CCTS documentation block of an enumeration
// simple type.
func ENUMAnnotation(e *core.ENUM) *xsd.Annotation {
	return &xsd.Annotation{Documentation: []xsd.DocEntry{
		{Tag: "ComponentType", Value: "ENUM"},
		{Tag: "Definition", Value: e.Definition},
	}}
}
