// Package jsonschema is the JSON Schema (draft 2020-12) backend of the
// generation pipeline: the same Resolve/Plan phases that drive the XSD
// generator feed a gen.Backend that renders one schema document per
// planned library unit. Business information entities become object
// schemas under $defs, data types become value-object schemas
// (chardata value plus supplementary-component properties, mirroring
// the Figure 8 XSD pattern), enumerations become string enums, and
// cross-library references become cross-document "$ref"s — so a JSON
// consumer sees the same modular library structure an XML consumer
// gets from the xsd:import graph.
package jsonschema

import (
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/ndr"
)

// Draft is the JSON Schema dialect every generated document declares.
const Draft = "https://json-schema.org/draft/2020-12/schema"

// ContentType is the media type of generated documents.
const ContentType = "application/schema+json"

// Node is one schema object. Documents are written by the package's
// writer exactly as json.MarshalIndent(doc, "", "  ") writes them, with
// the json tags below as the contract: fields in declaration order and
// the only maps ($defs, properties) in sorted key order, so
// serialization is deterministic by construction.
type Node struct {
	Schema               string           `json:"$schema,omitempty"`
	ID                   string           `json:"$id,omitempty"`
	Title                string           `json:"title,omitempty"`
	Description          string           `json:"description,omitempty"`
	Ref                  string           `json:"$ref,omitempty"`
	Type                 string           `json:"type,omitempty"`
	Format               string           `json:"format,omitempty"`
	ContentEncoding      string           `json:"contentEncoding,omitempty"`
	Enum                 []string         `json:"enum,omitempty"`
	Properties           map[string]*Node `json:"properties,omitempty"`
	Required             []string         `json:"required,omitempty"`
	AdditionalProperties *bool            `json:"additionalProperties,omitempty"`
	Items                *Node            `json:"items,omitempty"`
	MinItems             int              `json:"minItems,omitempty"`
	Defs                 map[string]*Node `json:"$defs,omitempty"`
}

// Backend implements gen.Backend for JSON Schema: each op's $defs
// entry is derived from the immutable plan alone, in plan order.
type Backend struct{}

// Target implements gen.Backend.
func (Backend) Target() string { return "jsonschema" }

// ContentType implements gen.Backend.
func (Backend) ContentType() string { return ContentType }

// FileName derives a unit's document name from its XSD file name.
func FileName(u *gen.Unit) string {
	return strings.TrimSuffix(u.File(), ".xsd") + ".json"
}

// Generate implements gen.Backend: one document per unit, its $defs
// filled op by op through EachOp, the document plan's root ABIE promoted
// to the primary document's top-level $ref.
func (Backend) Generate(p *gen.Plan) (*gen.Output, error) {
	ix := p.Index()
	units := p.Units()
	docs := make([]*Node, len(units))
	for i, u := range units {
		docs[i] = &Node{
			Schema: Draft,
			ID:     p.Namespace(u.Library()),
			Defs:   map[string]*Node{},
		}
	}
	err := p.EachOp(func(i int, u *gen.Unit, op gen.Op) {
		defs := docs[i].Defs
		switch {
		case op.ABIE() != nil:
			defs[ix.ABIETypeName(op.ABIE())] = emitABIE(p, u, op.ABIE())
		case op.CDT() != nil:
			cdt := op.CDT()
			base := scalarOf(p, cdt.Name, ndr.ContentBuiltin(cdt))
			defs[ix.DataTypeName(cdt)] = valueObject(p, base, cdt.Definition, cdt.Sups)
		case op.QDT() != nil:
			defs[ix.DataTypeName(op.QDT())] = emitQDT(p, u, op.QDT())
		default:
			e := op.ENUM()
			n := &Node{Type: "string", Enum: e.LiteralNames()}
			if p.Annotate() {
				n.Description = e.Definition
			}
			defs[ix.ENUMTypeName(e)] = n
		}
	})
	if err != nil {
		return nil, err
	}
	out := &gen.Output{}
	for i, u := range units {
		doc := docs[i]
		if i == 0 && p.Root() != nil {
			root := p.Root()
			doc.Title = ix.ABIEElementName(root)
			doc.Ref = "#/$defs/" + ix.ABIETypeName(root)
			out.RootElement = doc.Title
		}
		data := appendNode(make([]byte, 0, docBytes(u)), doc)
		out.Files = append(out.Files, gen.OutFile{Name: FileName(u), Data: append(data, '\n')})
	}
	return out, nil
}

// opBytes and memberBytes size a document's buffer before writing: the
// bytes of one $defs entry's frame and of one of its properties,
// enumeration values or required names. The fixture and synthetic
// models come within a fifth of the estimate unannotated; long
// descriptions make a buffer run short, and it doubles.
const (
	opBytes     = 96
	memberBytes = 112
)

// docBytes estimates the size of a unit's document.
func docBytes(u *gen.Unit) int {
	n := 2 * opBytes
	for _, op := range u.Ops() {
		n += opBytes
		switch {
		case op.ABIE() != nil:
			n += memberBytes * (len(op.ABIE().BBIEs) + len(op.ABIE().ASBIEs))
		case op.CDT() != nil:
			n += memberBytes * (1 + len(op.CDT().Sups))
		case op.QDT() != nil:
			n += memberBytes * (1 + len(op.QDT().Sups))
		default:
			n += memberBytes * len(op.ENUM().Literals)
		}
	}
	return n
}

// refTo builds the $ref from a unit to a type defined in the unit of
// lib: same-document refs use a local pointer, foreign ones the target
// document name (overridable per namespace through the profile's
// import map).
func refTo(p *gen.Plan, from *gen.Unit, lib *core.Library, typeName string) string {
	if lib == from.Library() {
		return "#/$defs/" + typeName
	}
	doc := ""
	for _, u := range p.Units() {
		if u.Library() == lib {
			doc = FileName(u)
			break
		}
	}
	if override, ok := p.Profile().Import(p.Namespace(lib)); ok {
		doc = override
	}
	return doc + "#/$defs/" + typeName
}

// emitABIE maps an ABIE to an object schema: BBIEs and ASBIEs become
// properties named like the XML elements, cardinality maps to
// required/array.
func emitABIE(p *gen.Plan, u *gen.Unit, abie *core.ABIE) *Node {
	ix := p.Index()
	f := false
	n := &Node{Type: "object", Properties: map[string]*Node{}, AdditionalProperties: &f}
	if p.Annotate() {
		n.Description = abie.Definition
	}
	for _, bbie := range abie.BBIEs {
		dtLib := bbie.Type.DataTypeLibrary()
		prop := &Node{Ref: refTo(p, u, dtLib, ix.DataTypeName(bbie.Type))}
		name := ix.BBIEElementName(bbie)
		n.Properties[name] = withCard(prop, bbie.Card)
		if bbie.Card.Lower >= 1 {
			n.Required = append(n.Required, name)
		}
	}
	for _, asbie := range abie.ASBIEs {
		targetLib := asbie.Target.Library()
		prop := &Node{Ref: refTo(p, u, targetLib, ix.ABIETypeName(asbie.Target))}
		name := ix.ASBIEElementName(asbie)
		n.Properties[name] = withCard(prop, asbie.Card)
		if asbie.Card.Lower >= 1 {
			n.Required = append(n.Required, name)
		}
	}
	return n
}

// emitQDT maps a qualified data type: enum-restricted content refers to
// the enumeration schema, primitive content inherits the CDT's
// representation-term refinement.
func emitQDT(p *gen.Plan, u *gen.Unit, qdt *core.QDT) *Node {
	ix := p.Index()
	var content *Node
	switch t := qdt.Content.Type.(type) {
	case *core.ENUM:
		content = &Node{Ref: refTo(p, u, t.Library(), ix.ENUMTypeName(t))}
	case *core.PRIM:
		base := ndr.XSDBuiltin(t)
		if qdt.BasedOn != nil {
			base = ndr.ContentBuiltin(qdt.BasedOn)
		}
		content = scalarOf(p, qdt.Name, base)
	}
	if override, ok := p.Datatype(qdt.Name); ok {
		content = scalarNode(override)
	}
	return supObject(p, content, qdt.Definition, qdt.Sups, func(sup *core.SupplementaryComponent) *Node {
		if en, ok := sup.Type.(*core.ENUM); ok {
			return &Node{Ref: refTo(p, u, en.Library(), ix.ENUMTypeName(en))}
		}
		return nil
	})
}

// valueObject maps a CDT: the content component becomes the "value"
// property, supplementary components become sibling properties
// (mirroring XSD's simpleContent extension with attributes).
func valueObject(p *gen.Plan, content *Node, definition string, sups []core.SupplementaryComponent) *Node {
	return supObject(p, content, definition, sups, func(*core.SupplementaryComponent) *Node { return nil })
}

func supObject(p *gen.Plan, content *Node, definition string, sups []core.SupplementaryComponent, special func(*core.SupplementaryComponent) *Node) *Node {
	f := false
	n := &Node{
		Type:                 "object",
		Properties:           map[string]*Node{"value": content},
		Required:             []string{"value"},
		AdditionalProperties: &f,
	}
	if p.Annotate() {
		n.Description = definition
	}
	ix := p.Index()
	for i := range sups {
		sup := &sups[i]
		prop := special(sup)
		if prop == nil {
			if prim, ok := sup.Type.(*core.PRIM); ok {
				prop = scalarNode(ndr.XSDBuiltin(prim))
			} else {
				prop = &Node{Type: "string"}
			}
		}
		name := ix.SupAttributeName(sup)
		n.Properties[name] = prop
		if sup.Card.Lower >= 1 {
			n.Required = append(n.Required, name)
		}
	}
	return n
}

// withCard wraps a property schema in an array when the cardinality
// allows more than one occurrence.
func withCard(n *Node, card core.Cardinality) *Node {
	if card.Upper == core.Unbounded || card.Upper > 1 {
		arr := &Node{Type: "array", Items: n}
		if card.Lower > 0 {
			arr.MinItems = card.Lower
		}
		return arr
	}
	return n
}

// scalarOf resolves a datatype's scalar schema, honouring the profile
// override for the named CDT/QDT.
func scalarOf(p *gen.Plan, typeName, xsdBuiltin string) *Node {
	if override, ok := p.Datatype(typeName); ok {
		return scalarNode(override)
	}
	return scalarNode(xsdBuiltin)
}

// scalarNode maps an XSD built-in name (xsd:decimal ...) to a JSON
// Schema scalar. Profile overrides may instead give a bare JSON type
// ("number"), which passes through.
func scalarNode(name string) *Node {
	switch name {
	case "xsd:string", "xsd:token", "xsd:normalizedString", "xsd:anyURI", "string":
		return &Node{Type: "string"}
	case "xsd:decimal", "xsd:double", "xsd:float", "number":
		return &Node{Type: "number"}
	case "xsd:integer", "xsd:int", "xsd:long", "xsd:short", "xsd:nonNegativeInteger", "integer":
		return &Node{Type: "integer"}
	case "xsd:boolean", "boolean":
		return &Node{Type: "boolean"}
	case "xsd:date":
		return &Node{Type: "string", Format: "date"}
	case "xsd:time":
		return &Node{Type: "string", Format: "time"}
	case "xsd:dateTime":
		return &Node{Type: "string", Format: "date-time"}
	case "xsd:duration":
		return &Node{Type: "string", Format: "duration"}
	case "xsd:base64Binary":
		return &Node{Type: "string", ContentEncoding: "base64"}
	default:
		if !strings.HasPrefix(name, "xsd:") && name != "" {
			// Profile override in the backend's own vocabulary.
			return &Node{Type: name}
		}
		return &Node{Type: "string"}
	}
}
