package core

import "strings"

// This file holds the transfer-syntax naming primitives of the UN/CEFACT
// XML Naming and Design Rules that depend only on the typed model: XML
// name derivation, the "Type" suffix, compound ASBIE element names,
// attribute use, schema file names and schema locations. internal/ndr
// re-exports them next to the XSD-specific pieces (prefix allocation,
// built-in mappings, annotations); keeping the primitives here lets the
// ModelIndex memoize them without an import cycle.

// XMLName turns a model element name into a legal XML NCName: spaces and
// dots are removed, other illegal characters become underscores, and a
// leading non-letter is prefixed with an underscore. Names like
// Person_Identification pass through unchanged, matching Figure 6.
func XMLName(name string) string {
	if isXMLName(name) {
		return name
	}
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9', r == '-':
			if b.Len() == 0 {
				b.WriteByte('_') // NCNames cannot start with a digit or hyphen
			}
			b.WriteRune(r)
		case r == ' ', r == '.':
			// removed entirely
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// isXMLName reports whether XMLName would return name unchanged: it is
// not empty, holds only ASCII letters, digits, '_' and '-', and starts
// with a letter or '_'.
func isXMLName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case (c >= '0' && c <= '9' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// TypeName derives the complex/simple type name: the XML name plus the
// Type suffix ("For every aggregate business information entity a
// complexType is defined which is named after the business entity plus a
// Type postfix").
func TypeName(name string) string { return XMLName(name) + "Type" }

// ASBIEElementName composes the element name of an ASBIE: "the role name
// of the ASBIE aggregation plus the name of the target ABIE" —
// Included + Attachment = IncludedAttachment, Billing +
// Person_Identification = BillingPerson_Identification.
func ASBIEElementName(role, targetABIE string) string {
	return XMLName(role) + XMLName(targetABIE)
}

// AttributeUse maps a supplementary component cardinality to the XSD
// attribute use: lower bound 1 is required, 0 is optional (Figure 8).
func AttributeUse(card Cardinality) string {
	if card.Lower >= 1 {
		return "required"
	}
	return "optional"
}

// SchemaFileName derives the generated file name for a library's schema:
// the sanitised library name plus the version, e.g.
// "EB005-HoardingPermit_0.4.xsd". Libraries without a version omit the
// suffix.
func SchemaFileName(lib *Library) string {
	name := fileSafe(lib.Name)
	if lib.Version != "" {
		name += "_" + fileSafe(lib.Version)
	}
	return name + ".xsd"
}

func fileSafe(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
