package jsonschema

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

// writer serialises a Node tree byte for byte as
// json.MarshalIndent(n, "", "  ") does: fields in declaration order,
// omitempty fields left out, map keys sorted, and strings escaped as
// encoding/json escapes them by default (see quote).
type writer struct {
	b     []byte
	depth int
	// first is set between an opening bracket and the first member.
	first bool
	// keys is a stack of map keys being sorted, reused by nested maps.
	keys []string
}

// appendNode appends the indented JSON of n to dst.
func appendNode(dst []byte, n *Node) []byte {
	w := writer{b: dst}
	w.node(n)
	return w.b
}

func (w *writer) node(n *Node) {
	if n == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('{')
	w.field("$schema", n.Schema)
	w.field("$id", n.ID)
	w.field("title", n.Title)
	w.field("description", n.Description)
	w.field("$ref", n.Ref)
	w.field("type", n.Type)
	w.field("format", n.Format)
	w.field("contentEncoding", n.ContentEncoding)
	if len(n.Enum) > 0 {
		w.key("enum")
		w.strings(n.Enum)
	}
	if len(n.Properties) > 0 {
		w.key("properties")
		w.nodes(n.Properties)
	}
	if len(n.Required) > 0 {
		w.key("required")
		w.strings(n.Required)
	}
	if n.AdditionalProperties != nil {
		w.key("additionalProperties")
		w.b = strconv.AppendBool(w.b, *n.AdditionalProperties)
	}
	if n.Items != nil {
		w.key("items")
		w.node(n.Items)
	}
	if n.MinItems != 0 {
		w.key("minItems")
		w.b = strconv.AppendInt(w.b, int64(n.MinItems), 10)
	}
	if len(n.Defs) > 0 {
		w.key("$defs")
		w.nodes(n.Defs)
	}
	w.close('}')
}

// field writes a string field unless it is empty.
func (w *writer) field(name, value string) {
	if value != "" {
		w.key(name)
		w.b = quote(w.b, value)
	}
}

func (w *writer) strings(values []string) {
	w.open('[')
	for _, v := range values {
		w.next()
		w.b = quote(w.b, v)
	}
	w.close(']')
}

// nodes writes a map in sorted key order.
func (w *writer) nodes(m map[string]*Node) {
	base := len(w.keys)
	for k := range m {
		w.keys = append(w.keys, k)
	}
	keys := w.keys[base:]
	slices.Sort(keys)
	w.open('{')
	for _, k := range keys {
		w.key(k)
		w.node(m[k])
	}
	w.close('}')
	w.keys = w.keys[:base]
}

func (w *writer) open(bracket byte) {
	w.b = append(w.b, bracket)
	w.depth++
	w.first = true
}

// next starts a member on its own line, after a comma unless it is the
// first.
func (w *writer) next() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

func (w *writer) key(k string) {
	w.next()
	w.b = quote(w.b, k)
	w.b = append(w.b, ": "...)
}

// close ends an object or array; an empty one stays on its line.
func (w *writer) close(bracket byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, bracket)
	w.first = false
}

// spaces indents a line by up to 16 levels at a time.
const spaces = "                                "

func (w *writer) newline() {
	w.b = append(w.b, '\n')
	for n := 2 * w.depth; n > 0; n -= len(spaces) {
		w.b = append(w.b, spaces[:min(n, len(spaces))]...)
	}
}

const hex = "0123456789abcdef"

// plain marks the ASCII bytes a JSON string holds as they are.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// quote appends s as a JSON string escaped as encoding/json's Marshal
// does: '"' and '\' backslash-escaped; \b, \f, \n, \r and \t as short
// escapes and other C0 controls as \u00XX; '<', '>' and '&' as \u003c,
// \u003e and \u0026; U+2028 and U+2029 as \u2028 and \u2029; each byte
// that is not UTF-8 as \ufffd; everything else as is.
func quote(dst []byte, s string) []byte {
	dst = append(dst, '"')
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[last:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			last = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[last:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[last:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		last = i
	}
	dst = append(dst, s[last:]...)
	return append(dst, '"')
}
