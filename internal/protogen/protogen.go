// Package protogen is the Protocol Buffers (proto3) backend of the
// generation pipeline: the Resolve/Plan phases that drive the XSD
// generator feed a gen.Backend that renders one .proto file per
// planned library unit, with the package name derived from the
// library's (effective) namespace. ABIEs become messages, data types
// become value messages (the content component as field 1, the
// supplementary components following), enumerations become proto
// enums with an UNSPECIFIED zero value.
//
// Field numbers are a pure function of plan/model order — BBIEs first,
// then ASBIEs, numbered from 1 in declaration order — so regenerating
// an unchanged model yields identical numbering; appending components
// to the end of an ABIE is wire-compatible, reordering or inserting is
// not (the caveat every schema-first proto workflow shares).
package protogen

import (
	"strconv"
	"strings"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/ndr"
)

// ContentType is the media type of generated files; .proto sources
// have no registered type, so they ship as plain text.
const ContentType = "text/plain; charset=utf-8"

// Backend implements gen.Backend for proto3: each op's message or enum
// block is derived from the immutable plan, and each unit's blocks are
// concatenated in plan order under a per-unit header.
type Backend struct{}

// Target implements gen.Backend.
func (Backend) Target() string { return "proto" }

// ContentType implements gen.Backend.
func (Backend) ContentType() string { return ContentType }

// FileName derives a unit's .proto name from its XSD file name.
func FileName(u *gen.Unit) string {
	return strings.TrimSuffix(u.File(), ".xsd") + ".proto"
}

// PackageName sanitizes a namespace URN/URI into a proto package name:
// segments split on URN/URL separators, lowered, non-identifier runes
// replaced, empty or digit-led segments prefixed.
func PackageName(ns string) string {
	segs := strings.FieldsFunc(ns, func(r rune) bool {
		return r == ':' || r == '/' || r == '.' || r == '#'
	})
	if len(segs) == 0 {
		return "ccts"
	}
	out := make([]string, 0, len(segs))
	for _, seg := range segs {
		var b strings.Builder
		for _, r := range strings.ToLower(seg) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
				b.WriteRune(r)
			default:
				b.WriteRune('_')
			}
		}
		s := b.String()
		if s == "" || (s[0] >= '0' && s[0] <= '9') {
			s = "p" + s
		}
		out = append(out, s)
	}
	return strings.Join(out, ".")
}

// Generate implements gen.Backend: EachOp renders every op's block,
// then each unit's file is written into a buffer of its exact size.
func (Backend) Generate(p *gen.Plan) (*gen.Output, error) {
	units := p.Units()
	blocks := make([][]string, len(units))
	for i, u := range units {
		blocks[i] = make([]string, 0, len(u.Ops()))
	}
	err := p.EachOp(func(i int, u *gen.Unit, op gen.Op) {
		w := &writer{p: p, u: u}
		switch {
		case op.ABIE() != nil:
			w.abie(op.ABIE())
		case op.CDT() != nil:
			cdt := op.CDT()
			base := scalarOf(p, cdt.Name, ndr.ContentBuiltin(cdt))
			w.valueMessage(p.Index().DataTypeName(cdt), cdt.Definition, nil, base, cdt.Sups)
		case op.QDT() != nil:
			w.qdt(op.QDT())
		default:
			w.enum(op.ENUM())
		}
		blocks[i] = append(blocks[i], w.b.String())
	})
	if err != nil {
		return nil, err
	}
	out := &gen.Output{}
	for i, u := range units {
		lib := u.Library()
		ns := p.Namespace(lib)
		pkg := PackageName(ns)
		imports := make([]string, len(u.ImportedLibraries()))
		size := headerBytes + len(lib.Kind.String()) + len(lib.Name) + len(ns) + len(pkg)
		for j, imp := range u.ImportedLibraries() {
			imports[j] = importPath(p, imp)
			size += importBytes + len(imports[j])
		}
		if len(imports) > 0 {
			size++
		}
		for _, block := range blocks[i] {
			size += 1 + len(block)
		}
		b := make([]byte, 0, size)
		b = append(b, "syntax = \"proto3\";\n\n// Generated from "...)
		b = append(b, lib.Kind.String()...)
		b = append(b, ' ')
		b = append(b, lib.Name...)
		b = append(b, " ("...)
		b = append(b, ns...)
		b = append(b, ").\npackage "...)
		b = append(b, pkg...)
		b = append(b, ";\n"...)
		for _, loc := range imports {
			b = append(b, "\nimport "...)
			b = strconv.AppendQuote(b, loc)
			b = append(b, ';')
		}
		if len(imports) > 0 {
			b = append(b, '\n')
		}
		for _, block := range blocks[i] {
			b = append(b, '\n')
			b = append(b, block...)
		}
		if i == 0 && p.Root() != nil {
			out.RootElement = p.Index().ABIETypeName(p.Root())
		}
		out.Files = append(out.Files, gen.OutFile{Name: FileName(u), Data: b})
	}
	return out, nil
}

// headerBytes and importBytes size a file's fixed text: the header
// around the library kind, name, namespace and package, and an import
// statement around its quoted path.
const (
	headerBytes = len("syntax = \"proto3\";\n\n// Generated from " + " " + " (" + ").\npackage " + ";\n")
	importBytes = len("\nimport \"\";")
)

// importPath resolves the import statement's path for an imported
// library, honouring the profile's per-namespace override.
func importPath(p *gen.Plan, lib *core.Library) string {
	if override, ok := p.Profile().Import(p.Namespace(lib)); ok {
		return override
	}
	for _, u := range p.Units() {
		if u.Library() == lib {
			return FileName(u)
		}
	}
	return ""
}

// writer renders one op's block. It derives the package name of each
// foreign library the op references once, not once per field.
type writer struct {
	p    *gen.Plan
	u    *gen.Unit
	b    strings.Builder
	libs []*core.Library
	pkgs []string
}

// typeRef writes a message/enum name from the perspective of the unit:
// same-package types are bare, foreign ones package-qualified.
func (w *writer) typeRef(lib *core.Library, name string) {
	if lib != w.u.Library() {
		w.b.WriteString(w.pkg(lib))
		w.b.WriteByte('.')
	}
	w.b.WriteString(name)
}

func (w *writer) pkg(lib *core.Library) string {
	for i, l := range w.libs {
		if l == lib {
			return w.pkgs[i]
		}
	}
	name := PackageName(w.p.Namespace(lib))
	w.libs = append(w.libs, lib)
	w.pkgs = append(w.pkgs, name)
	return name
}

// fieldStart writes the indentation and label of a field with the
// cardinality; the type follows.
func (w *writer) fieldStart(card core.Cardinality) {
	switch {
	case card.Upper == core.Unbounded || card.Upper > 1:
		w.b.WriteString("  repeated ")
	case card.Lower == 0:
		w.b.WriteString("  optional ")
	default:
		w.b.WriteString("  ")
	}
}

// fieldEnd writes a field's name and its plan-order number.
func (w *writer) fieldEnd(name string, number int) {
	w.b.WriteByte(' ')
	writeFieldName(&w.b, name, false)
	w.b.WriteString(" = ")
	w.b.WriteString(strconv.Itoa(number))
	w.b.WriteString(";\n")
}

// open writes the leading comment and the opening line of a message or
// enum.
func (w *writer) open(keyword, name, definition string) {
	w.comment(definition)
	w.b.WriteString(keyword)
	w.b.WriteString(name)
	w.b.WriteString(" {\n")
}

// abie renders an ABIE message: BBIE fields first, then ASBIEs,
// numbered from 1 in declaration order.
func (w *writer) abie(abie *core.ABIE) {
	ix := w.p.Index()
	w.open("message ", ix.ABIETypeName(abie), abie.Definition)
	num := 0
	for _, bbie := range abie.BBIEs {
		num++
		w.fieldStart(bbie.Card)
		w.typeRef(bbie.Type.DataTypeLibrary(), ix.DataTypeName(bbie.Type))
		w.fieldEnd(ix.BBIEElementName(bbie), num)
	}
	for _, asbie := range abie.ASBIEs {
		num++
		w.fieldStart(asbie.Card)
		w.typeRef(asbie.Target.Library(), ix.ABIETypeName(asbie.Target))
		w.fieldEnd(ix.ASBIEElementName(asbie), num)
	}
	w.b.WriteString("}\n")
}

// qdt renders a qualified data type message.
func (w *writer) qdt(qdt *core.QDT) {
	var contentLib *core.Library
	var base string
	switch t := qdt.Content.Type.(type) {
	case *core.ENUM:
		contentLib, base = t.Library(), w.p.Index().ENUMTypeName(t)
	case *core.PRIM:
		if qdt.BasedOn != nil {
			base = scalar(ndr.ContentBuiltin(qdt.BasedOn))
		} else {
			base = scalar(ndr.XSDBuiltin(t))
		}
	}
	if override, ok := w.p.Datatype(qdt.Name); ok {
		contentLib, base = nil, scalar(override)
	}
	w.valueMessage(w.p.Index().DataTypeName(qdt), qdt.Definition, contentLib, base, qdt.Sups)
}

// valueMessage renders the proto counterpart of XSD simpleContent: the
// content component as field 1 named "value", supplementary components
// as the following fields. A content type with a library is a message or
// enum of that library; without one it is a scalar.
func (w *writer) valueMessage(name, definition string, contentLib *core.Library, contentType string, sups []core.SupplementaryComponent) {
	ix := w.p.Index()
	w.open("message ", name, definition)
	w.b.WriteString("  ")
	if contentLib != nil {
		w.typeRef(contentLib, contentType)
	} else {
		w.b.WriteString(contentType)
	}
	w.b.WriteString(" value = 1;\n")
	for i := range sups {
		sup := &sups[i]
		w.fieldStart(sup.Card)
		switch t := sup.Type.(type) {
		case *core.ENUM:
			w.typeRef(t.Library(), ix.ENUMTypeName(t))
		case *core.PRIM:
			w.b.WriteString(scalar(ndr.XSDBuiltin(t)))
		default:
			w.b.WriteString("string")
		}
		w.fieldEnd(ix.SupAttributeName(sup), i+2)
	}
	w.b.WriteString("}\n")
}

// enum renders a proto enum. proto3 requires a zero value; CCTS code
// lists have no natural one, so an UNSPECIFIED sentinel leads and the
// modeled literals number from 1 in declaration order.
func (w *writer) enum(e *core.ENUM) {
	name := w.p.Index().ENUMTypeName(e)
	prefix := constCase(name)
	w.open("enum ", name, e.Definition)
	w.b.WriteString("  ")
	w.b.WriteString(prefix)
	w.b.WriteString("_UNSPECIFIED = 0;\n")
	for i, l := range e.Literals {
		w.b.WriteString("  ")
		w.b.WriteString(prefix)
		w.b.WriteByte('_')
		writeFieldName(&w.b, l.Name, true)
		w.b.WriteString(" = ")
		w.b.WriteString(strconv.Itoa(i + 1))
		w.b.WriteString(";\n")
	}
	w.b.WriteString("}\n")
}

// comment renders a leading comment, one "// " line per line of text,
// when annotations are on.
func (w *writer) comment(text string) {
	if !w.p.Annotate() || text == "" {
		return
	}
	for {
		line, rest, more := strings.Cut(text, "\n")
		w.b.WriteString("// ")
		w.b.WriteString(line)
		w.b.WriteByte('\n')
		if !more {
			return
		}
		text = rest
	}
}

// writeFieldName writes a CamelCase element name in snake_case, or in
// SCREAMING_SNAKE for enum values when upper is set.
func writeFieldName(b *strings.Builder, name string, upper bool) {
	if name == "" {
		if upper {
			b.WriteString("FIELD")
		} else {
			b.WriteString("field")
		}
		return
	}
	if name[0] >= '0' && name[0] <= '9' {
		if upper {
			b.WriteByte('F')
		} else {
			b.WriteByte('f')
		}
	}
	for i, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			if i > 0 {
				prev := name[i-1]
				// Break at lower/digit→upper boundaries and at the end of
				// an acronym run ("VATNumber" -> vat_number).
				acronymEnd := prev >= 'A' && prev <= 'Z' &&
					i+1 < len(name) && name[i+1] >= 'a' && name[i+1] <= 'z'
				if prev >= 'a' && prev <= 'z' || prev >= '0' && prev <= '9' || acronymEnd {
					b.WriteByte('_')
				}
			}
			if !upper {
				r += 'a' - 'A'
			}
			b.WriteByte(byte(r))
		case r >= 'a' && r <= 'z':
			if upper {
				r -= 'a' - 'A'
			}
			b.WriteByte(byte(r))
		case r >= '0' && r <= '9':
			b.WriteByte(byte(r))
		default:
			b.WriteByte('_')
		}
	}
}

// constCase converts a name to SCREAMING_SNAKE for enum values.
func constCase(name string) string {
	var b strings.Builder
	writeFieldName(&b, name, true)
	return b.String()
}

// scalarOf resolves a datatype's scalar type, honouring the profile
// override for the named CDT/QDT.
func scalarOf(p *gen.Plan, typeName, xsdBuiltin string) string {
	if override, ok := p.Datatype(typeName); ok {
		return scalar(override)
	}
	return scalar(xsdBuiltin)
}

// scalar maps an XSD built-in name to a proto3 scalar. xsd:decimal
// maps to string: proto3 has no arbitrary-precision numeric type and
// monetary amounts must not round-trip through floating point.
// Profile overrides may give a bare proto type, which passes through.
func scalar(name string) string {
	switch name {
	case "xsd:string", "xsd:token", "xsd:normalizedString", "xsd:anyURI",
		"xsd:decimal", "xsd:date", "xsd:time", "xsd:dateTime", "xsd:duration":
		return "string"
	case "xsd:double":
		return "double"
	case "xsd:float":
		return "float"
	case "xsd:integer", "xsd:long":
		return "int64"
	case "xsd:int", "xsd:short":
		return "int32"
	case "xsd:boolean":
		return "bool"
	case "xsd:base64Binary":
		return "bytes"
	default:
		if !strings.HasPrefix(name, "xsd:") && name != "" {
			return name
		}
		return "string"
	}
}
