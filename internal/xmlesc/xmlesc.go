// Package xmlesc is the escaper shared by the hand-written XML emitters
// (XMI, RELAX NG, RDF Schema and sample instances; the XSD writer wraps
// it). Values are written straight into the output buffer: a value with
// nothing to escape is one WriteString, and an escaped one is written
// run by run, so no intermediate string is built.
//
// Both contexts write &, <, > and " as entity references, and map every
// character XML 1.0 forbids, including bytes that are not UTF-8, to
// U+FFFD, as encoding/xml.EscapeText does. Carriage return is written as
// &#xD; because a parser would otherwise normalise it to a line feed. In
// attribute values, tab and line feed are character references too,
// since attribute-value normalisation would turn them into spaces.
package xmlesc

import (
	"bytes"
	"unicode/utf8"
)

// Attr writes s to b escaped for a double-quoted attribute value.
func Attr(b *bytes.Buffer, s string) { write(b, s, &attrEscapes) }

// Text writes s to b escaped as character data.
func Text(b *bytes.Buffer, s string) { write(b, s, &textEscapes) }

// textEscapes and attrEscapes hold the replacement of each ASCII byte,
// "" for a byte written as is.
var textEscapes, attrEscapes = escapeTables()

func escapeTables() (text, attr [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		text[c] = "\uFFFD"
	}
	text['\t'], text['\n'], text['\r'] = "", "", "&#xD;"
	text['&'], text['<'], text['>'], text['"'] = "&amp;", "&lt;", "&gt;", "&quot;"
	attr = text
	attr['\t'], attr['\n'] = "&#x9;", "&#xA;"
	return text, attr
}

func write(b *bytes.Buffer, s string, escapes *[utf8.RuneSelf]string) {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		width := 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = escapes[c]
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && width == 1 || r == 0xFFFE || r == 0xFFFF {
				esc = "\uFFFD"
			}
		}
		if esc == "" {
			i += width
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		i += width
		last = i
	}
	b.WriteString(s[last:])
}
