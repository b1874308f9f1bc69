// Package xmlscan is the one XML reader of the system. It reads the
// three kinds of document the pipeline ingests straight from the input
// bytes: XMI models (internal/xmi), XSD schema sets (internal/xsd) and
// the business messages validated against them (internal/xsdval). It
// enforces the ingestion policy of internal/limits, in one order, for
// all three.
//
// The scanner reads elements, attributes, namespace prefixes and the
// default namespace, character data, CDATA sections, comments,
// processing instructions (with encoding/xml's UTF-8-only encoding
// check), predefined and numeric references, and \r\n and \r
// normalisation. It accepts and rejects what encoding/xml's
// Decoder.Token does in strict mode, and applies every limits.Limits
// check at the token boundary, and in the order, of the guarded
// encoding/xml decoder the tests keep as xmloracle.Decoder, with one
// exception: a character-data run is cut as soon as its decoded length
// crosses MaxTokenLen instead of after the whole run. It rejects
// DOCTYPE and ENTITY directives. It keeps no copy of character data and
// decodes an attribute value or a text run only when the caller asks
// for it, and it counts line:col as byte offsets without an index of
// newlines.
package xmlscan

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/go-ccts/ccts/internal/limits"
)

// Kind is the kind of token Next reports. Character data, comments,
// processing instructions and directives are checked and consumed
// between tokens.
type Kind uint8

const (
	// Start is a start tag. The element's name and attributes stay
	// current until the next call to Next.
	Start Kind = iota
	// End closes the innermost open element, by an end tag or right
	// after a start tag written <a/>. The element's name stays current.
	End
)

// xmlNamespace is the namespace the xml prefix is bound to.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// span is the byte range [lo, hi) of the input.
type span struct{ lo, hi int }

// rawAttr is one attribute of the current start element. Its value stays
// undecoded until the caller asks for it.
type rawAttr struct {
	name, local span
	val         span // between the quotes
	vlen        int  // decoded length
	escaped     bool // the value holds a reference or a carriage return
}

// openElem is an element whose end tag is still due.
type openElem struct {
	name, local span
	undos       int // len(Scanner.undo) before the element's own declarations
}

// undo restores the binding of prefix that one namespace declaration
// replaced when the declaring element ends.
type undo struct {
	prefix, uri string
	bound       bool
}

// Scanner reads one document held in memory, token by token.
type Scanner struct {
	data    []byte
	atLimit bool // data was cut at MaxInputBytes: reading past it is a violation
	lim     limits.Limits
	op      string // the reader named in positioned errors
	off     int    // offset of the next unread byte

	// Line bookkeeping: line is the line number of offset counted, and
	// lineStart the offset just after the newline that began it.
	line, lineStart, counted int

	depth, elements int
	open            []openElem
	ns              map[string]string // namespace bindings in scope by prefix; "" is the default namespace
	undo            []undo

	// The current element: the start tag last read, or the element the
	// last End closed.
	name, local span
	attrs       []rawAttr
	selfClosed  bool // it was written <a/>: its end is the next token

	// The character data before the current token lies in
	// [textLo, textHi), with comments, processing instructions, CDATA
	// sections or directives among it when markup is set.
	textLo, textHi int
	markup         bool
}

// New returns a scanner over data that reads at most
// lim.MaxInputBytes of it: a document that needs more fails with that
// violation. op names the reader in the positioned errors the scanner
// returns ("xmi", "xsd", ...).
func New(data []byte, lim limits.Limits, op string) *Scanner {
	s := &Scanner{lim: lim, op: op, line: 1, attrs: make([]rawAttr, 0, 16)}
	if max := lim.MaxInputBytes; max > 0 && int64(len(data)) >= max {
		data, s.atLimit = data[:max], true
	}
	s.data = data
	return s
}

// ReadInput reads r to its end, or to its first max bytes when max is
// positive, into a buffer sized from what r says it holds: its Len when
// it has one, the unread rest of a regular file. Other readers, pipes
// among them, grow the buffer as they deliver. A read error fails the
// read, wherever in the input it occurs; op names the reader in it.
func ReadInput(r io.Reader, max int64, op string) ([]byte, error) {
	var buf bytes.Buffer
	if n, ok := inputLen(r); ok {
		if max > 0 {
			n = min(n, max)
		}
		buf.Grow(int(n) + bytes.MinRead)
	}
	if max > 0 {
		r = io.LimitReader(r, max)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("%s: reading input: %w", op, err)
	}
	return buf.Bytes(), nil
}

// inputLen returns the number of bytes r holds, if it can tell.
func inputLen(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return max(fi.Size()-off, 0), true
	}
	return 0, false
}

// posAt returns the 1-based line:col of offset off. Newlines are counted
// from the last offset asked for, so a whole import counts each byte at
// most once.
func (s *Scanner) posAt(off int) (line, col int) {
	if off < s.counted {
		s.line, s.lineStart, s.counted = 1, 0, 0
	}
	for s.counted < off {
		i := bytes.IndexByte(s.data[s.counted:off], '\n')
		if i < 0 {
			s.counted = off
			break
		}
		s.line++
		s.lineStart = s.counted + i + 1
		s.counted = s.lineStart
	}
	return s.line, off - s.lineStart + 1
}

// Pos returns the 1-based line:col just after the most recent token.
func (s *Scanner) Pos() (line, col int) { return s.posAt(s.off) }

// Offset returns the byte offset just after the most recent token.
func (s *Scanner) Offset() int { return s.off }

// Size returns the number of input bytes the scanner may read.
func (s *Scanner) Size() int { return len(s.data) }

// errAt positions err at offset off.
func (s *Scanner) errAt(off int, err error) error {
	line, col := s.posAt(off)
	return &limits.PosError{Op: s.op, Line: line, Col: col, Err: err}
}

func (s *Scanner) syntaxf(off int, format string, args ...any) error {
	return s.errAt(off, fmt.Errorf(format, args...))
}

// Errorf returns a caller's error positioned just after the most recent
// token, as a *limits.PosError naming the scanner's reader.
func (s *Scanner) Errorf(format string, args ...any) error {
	return s.syntaxf(s.off, format, args...)
}

// more is the error of a read past the available input: the
// MaxInputBytes violation when the input was cut there, an unexpected
// EOF otherwise.
func (s *Scanner) more() error {
	if s.atLimit {
		line, col := s.posAt(len(s.data))
		return &limits.Violation{
			Limit:  "MaxInputBytes",
			Detail: fmt.Sprintf("input exceeds %d bytes", s.lim.MaxInputBytes),
			Line:   line, Col: col,
		}
	}
	return s.errAt(len(s.data), io.ErrUnexpectedEOF)
}

func (s *Scanner) violation(limit, format string, args ...any) error {
	line, col := s.Pos()
	return &limits.Violation{Limit: limit, Detail: fmt.Sprintf(format, args...), Line: line, Col: col}
}

// Next advances to the next start or end element and returns its kind;
// it returns io.EOF after the last element of a well-formed input.
func (s *Scanner) Next() (Kind, error) {
	if s.selfClosed {
		s.selfClosed = false
		s.textLo, s.textHi, s.markup = s.off, s.off, false
		s.pop()
		return End, nil
	}
	s.textLo, s.markup = s.off, false
	for {
		if s.off >= len(s.data) {
			switch {
			case s.atLimit:
				return 0, s.more()
			case len(s.open) > 0:
				return 0, s.errAt(s.off, io.ErrUnexpectedEOF)
			}
			return 0, io.EOF
		}
		if s.data[s.off] != '<' {
			if err := s.charData(false); err != nil {
				return 0, err
			}
			continue
		}
		if s.off+1 >= len(s.data) {
			return 0, s.more()
		}
		var err error
		switch s.data[s.off+1] {
		case '/':
			s.textHi = s.off
			if err := s.endTag(); err != nil {
				return 0, err
			}
			return End, nil
		case '?':
			s.markup = true
			err = s.procInst()
		case '!':
			s.markup = true
			err = s.markupDecl()
		default:
			s.textHi = s.off
			if err := s.startTag(); err != nil {
				return 0, err
			}
			return Start, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// Skip consumes the rest of the current element, its end included,
// through Next so every nested token is checked too.
func (s *Scanner) Skip() error {
	for {
		kind, err := s.Next()
		if err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		switch kind {
		case Start:
			if err := s.Skip(); err != nil {
				return err
			}
		case End:
			return nil
		}
	}
}

// pop closes the innermost open element and undoes its namespace
// declarations, latest first.
func (s *Scanner) pop() {
	top := s.open[len(s.open)-1]
	for len(s.undo) > top.undos {
		u := s.undo[len(s.undo)-1]
		if u.bound {
			s.ns[u.prefix] = u.uri
		} else {
			delete(s.ns, u.prefix)
		}
		s.undo = s.undo[:len(s.undo)-1]
	}
	s.open = s.open[:len(s.open)-1]
	s.depth--
}

// declare binds prefix to uri until the current element ends.
func (s *Scanner) declare(prefix, uri string) {
	if s.ns == nil {
		s.ns = map[string]string{}
	}
	old, bound := s.ns[prefix]
	s.undo = append(s.undo, undo{prefix: prefix, uri: old, bound: bound})
	s.ns[prefix] = uri
}

// charData consumes a text run at s.off, or a CDATA section's content,
// and applies MaxTokenLen to it while scanning.
func (s *Scanner) charData(cdata bool) error {
	max := s.lim.MaxTokenLen
	if max <= 0 {
		max = -1
	}
	_, _, err := s.text(0, cdata, max)
	return err
}

// text scans character data from s.off the way encoding/xml's text
// does: up to a '<' (a text run), up to "]]>" (cdata) or up to the
// closing quote (quote, a double or single quote, is non-zero). It
// returns the decoded length and whether decoding changes the bytes,
// and leaves s.off after the run. encoding/xml reports errors in the loop (bad references, "]]>"
// in text, '<' in a value, the end of input) as it meets them, but a
// character outside the XML Char range only after the whole run, so
// the first one is held until the run ends. A max of zero or more cuts
// the run as soon as its decoded length exceeds max; a CDATA section
// gets two bytes of slack for the "]]" its end may still remove.
func (s *Scanner) text(quote byte, cdata bool, max int) (n int, escaped bool, err error) {
	data := s.data
	i := s.off
	bad := -1
	slack := 0
	if cdata {
		slack = 2
	}
	// b0 and b1 are the last two raw bytes since the last reference,
	// which is what encoding/xml matches "]]>" against.
	var b0, b1 byte
	for {
		// Plain bytes decode to themselves; take a run of them at once,
		// stopping at the byte that would cross max.
		stop := len(data)
		if max >= 0 && i+max+slack-n < stop {
			stop = i + max + slack - n + 1
		}
		j := i
		for j < stop && plainText[data[j]] {
			j++
		}
		if j > i {
			n += j - i
			if j-i > 1 {
				b0 = data[j-2]
			} else {
				b0 = b1
			}
			b1 = data[j-1]
			i = j
		}
		if max >= 0 && n-slack > max {
			s.off = i
			return 0, false, s.violation("MaxTokenLen", "character data longer than %d bytes", max)
		}
		if i >= len(data) {
			s.off = i
			if cdata || quote != 0 && bad < 0 {
				return 0, false, s.more()
			}
			break
		}
		b := data[i]
		if quote == 0 && b0 == ']' && b1 == ']' && b == '>' {
			if !cdata {
				return 0, false, s.syntaxf(i, "unescaped ]]> not in CDATA section")
			}
			n -= 2
			i++
			break
		}
		if b == '<' && !cdata {
			if quote != 0 {
				return 0, false, s.syntaxf(i, "unescaped < inside quoted string")
			}
			break
		}
		if quote != 0 && b == quote {
			i++
			break
		}
		switch {
		case b == '&' && !cdata:
			r, next, err := s.reference(i)
			if err != nil {
				return 0, false, err
			}
			if !inCharRange(r) && bad < 0 {
				bad = i
			}
			n += utf8.RuneLen(r)
			escaped = true
			b0, b1 = 0, 0
			i = next
		case b == '\r':
			// \r and \r\n both decode to \n.
			escaped = true
			n++
			b0, b1 = b1, b
			i++
			if i < len(data) && data[i] == '\n' {
				b0, b1 = b1, '\n'
				i++
			}
		case b < utf8.RuneSelf:
			if b < 0x20 && b != '\t' && b != '\n' && bad < 0 {
				bad = i
			}
			n++
			b0, b1 = b1, b
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1 || !inCharRange(r)) && bad < 0 {
				bad = i
			}
			n += size
			b0, b1 = b1, b
			i += size
		}
	}
	s.off = i
	if bad >= 0 {
		return 0, false, s.syntaxf(i, "illegal character or invalid UTF-8 at offset %d", bad)
	}
	return n, escaped, nil
}

// plainText marks the bytes text passes through unchanged without a
// second look: printable ASCII other than markup, references, quotes
// and the ']' that may start "]]>", plus tab and newline.
var plainText = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`<>&]"'`, rune(c))
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// inCharRange reports whether r is an XML Char; references to
// surrogates decode to U+FFFD, as in encoding/xml.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// reference decodes the character or entity reference at data[i] ==
// '&' and returns its rune and the offset after it. Only the five
// predefined entities exist: a document cannot declare others.
func (s *Scanner) reference(i int) (rune, int, error) {
	data := s.data
	j := i + 1
	if j >= len(data) {
		return 0, 0, s.more()
	}
	if data[j] == '#' {
		j++
		if j >= len(data) {
			return 0, 0, s.more()
		}
		base := uint64(10)
		if data[j] == 'x' {
			base = 16
			j++
			if j >= len(data) {
				return 0, 0, s.more()
			}
		}
		start := j
		var n uint64
		for ; j < len(data); j++ {
			d, ok := digit(data[j], base)
			if !ok {
				break
			}
			if n <= unicode.MaxRune {
				n = n*base + d
			}
		}
		if j >= len(data) {
			return 0, 0, s.more()
		}
		if data[j] == ';' && j > start && n <= unicode.MaxRune {
			r := rune(n)
			if !utf8.ValidRune(r) {
				r = utf8.RuneError
			}
			return r, j + 1, nil
		}
		return 0, 0, s.syntaxf(j, "invalid character reference %q", data[i:j])
	}
	k := j
	for k < len(data) && isNameByte(data[k]) {
		k++
	}
	if k >= len(data) {
		return 0, 0, s.more()
	}
	if data[k] == ';' {
		switch string(data[j:k]) {
		case "lt":
			return '<', k + 1, nil
		case "gt":
			return '>', k + 1, nil
		case "amp":
			return '&', k + 1, nil
		case "apos":
			return '\'', k + 1, nil
		case "quot":
			return '"', k + 1, nil
		}
	}
	return 0, 0, s.syntaxf(k, "invalid entity reference %q", data[i:k])
}

func digit(c byte, base uint64) (uint64, bool) {
	switch {
	case '0' <= c && c <= '9':
		return uint64(c - '0'), true
	case base == 16 && 'a' <= c && c <= 'f':
		return uint64(c-'a') + 10, true
	case base == 16 && 'A' <= c && c <= 'F':
		return uint64(c-'A') + 10, true
	}
	return 0, false
}

// nameBytes marks the ASCII bytes encoding/xml reads as part of a name;
// every byte of a multi-byte character is read too, and isName then
// checks the whole name.
var nameBytes = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

func isNameByte(c byte) bool { return c >= utf8.RuneSelf || nameBytes[c] }

// isName reports whether b, read as a name, is an XML name.
func isName(b []byte) bool {
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n <= 1 || !unicode.Is(nameFirst, r) {
		return false
	}
	for b = b[n:]; len(b) > 0; b = b[n:] {
		r, n = utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 || !unicode.Is(nameFirst, r) && !unicode.Is(nameRest, r) {
			return false
		}
	}
	return true
}

// scanName scans a name at offset i and returns its end and the number
// and first offset of its colons; missing is the complaint when no name
// starts there.
func (s *Scanner) scanName(i int, missing string) (end, colons, colon int, err error) {
	data := s.data
	if i >= len(data) {
		return 0, 0, 0, s.more()
	}
	if !isNameByte(data[i]) {
		return 0, 0, 0, s.syntaxf(i, "%s", missing)
	}
	ascii := true
	j := i
scan:
	for ; j < len(data); j++ {
		switch c := data[j]; {
		case c >= utf8.RuneSelf:
			ascii = false
		case !nameBytes[c]:
			break scan
		case c == ':':
			if colons == 0 {
				colon = j
			}
			colons++
		}
	}
	if j >= len(data) {
		return 0, 0, 0, s.more()
	}
	if c := data[i]; ascii && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') || !ascii && !isName(data[i:j]) {
		return 0, 0, 0, s.syntaxf(j, "invalid XML name %q", data[i:j])
	}
	return j, colons, colon, nil
}

// qname scans a possibly prefixed name at offset i and returns it with
// its local part: the text after the colon when exactly one colon
// splits the name into two non-empty parts, the whole name otherwise.
func (s *Scanner) qname(i int, missing string) (name, local span, err error) {
	j, colons, colon, err := s.scanName(i, missing)
	if err != nil {
		return span{}, span{}, err
	}
	if colons > 1 {
		return span{}, span{}, s.syntaxf(i, "%s", missing)
	}
	name, local = span{i, j}, span{i, j}
	if colons == 1 && colon > i && colon+1 < j {
		local.lo = colon + 1
	}
	return name, local, nil
}

func (s *Scanner) space(i int) int {
	for i < len(s.data) {
		switch s.data[i] {
		case ' ', '\r', '\n', '\t':
			i++
		default:
			return i
		}
	}
	return i
}

// startTag scans the start tag at s.off, then declares its namespaces,
// opens it and applies the limits: depth, element count, attribute
// count, then the length of each name and value.
func (s *Scanner) startTag() error {
	data := s.data
	name, local, err := s.qname(s.off+1, "expected element name after <")
	if err != nil {
		return err
	}
	i := name.hi
	s.attrs = s.attrs[:0]
	empty := false
	for {
		i = s.space(i)
		if i >= len(data) {
			return s.more()
		}
		if data[i] == '/' {
			if i+1 >= len(data) {
				return s.more()
			}
			if data[i+1] != '>' {
				return s.syntaxf(i+1, "expected /> in element")
			}
			i += 2
			empty = true
			break
		}
		if data[i] == '>' {
			i++
			break
		}
		var a rawAttr
		if a.name, a.local, err = s.qname(i, "expected attribute name in element"); err != nil {
			return err
		}
		i = s.space(a.name.hi)
		if i >= len(data) {
			return s.more()
		}
		if data[i] != '=' {
			return s.syntaxf(i, "attribute name without = in element")
		}
		i = s.space(i + 1)
		if i >= len(data) {
			return s.more()
		}
		q := data[i]
		if q != '"' && q != '\'' {
			return s.syntaxf(i, "unquoted or missing attribute value in element")
		}
		s.off = i + 1
		if a.vlen, a.escaped, err = s.text(q, false, -1); err != nil {
			return err
		}
		a.val = span{i + 1, s.off - 1}
		s.attrs = append(s.attrs, a)
		i = s.off
	}
	s.off = i

	top := openElem{name: name, local: local, undos: len(s.undo)}
	for k := range s.attrs {
		a := &s.attrs[k]
		switch {
		case a.local.lo > a.name.lo && string(s.data[a.name.lo:a.local.lo-1]) == "xmlns":
			s.declare(string(s.data[a.local.lo:a.local.hi]), string(s.value(a)))
		case a.local.lo == a.name.lo && string(s.data[a.name.lo:a.name.hi]) == "xmlns":
			s.declare("", string(s.value(a)))
		}
	}
	s.open = append(s.open, top)
	s.name, s.local, s.selfClosed = name, local, empty

	lim := s.lim
	s.depth++
	if lim.MaxDepth > 0 && s.depth > lim.MaxDepth {
		return s.violation("MaxDepth", "element <%s> nests deeper than %d levels", s.Local(), lim.MaxDepth)
	}
	s.elements++
	if lim.MaxElements > 0 && s.elements > lim.MaxElements {
		return s.violation("MaxElements", "document has more than %d elements", lim.MaxElements)
	}
	if lim.MaxAttributes > 0 && len(s.attrs) > lim.MaxAttributes {
		return s.violation("MaxAttributes", "element <%s> has %d attributes (limit %d)", s.Local(), len(s.attrs), lim.MaxAttributes)
	}
	if max := lim.MaxTokenLen; max > 0 {
		if local.hi-local.lo > max {
			return s.violation("MaxTokenLen", "element name longer than %d bytes", max)
		}
		for _, a := range s.attrs {
			if a.local.hi-a.local.lo > max || a.vlen > max {
				return s.violation("MaxTokenLen", "attribute %q of <%s> longer than %d bytes", s.data[a.local.lo:a.local.hi], s.Local(), max)
			}
		}
	}
	return nil
}

// endTag scans the end tag at s.off and closes the element it ends.
func (s *Scanner) endTag() error {
	name, _, err := s.qname(s.off+2, "expected element name after </")
	if err != nil {
		return err
	}
	i := s.space(name.hi)
	if i >= len(s.data) {
		return s.more()
	}
	if s.data[i] != '>' {
		return s.syntaxf(i, "invalid characters between </%s and >", s.data[name.lo:name.hi])
	}
	s.off = i + 1
	raw := s.data[name.lo:name.hi]
	if len(s.open) == 0 {
		return s.syntaxf(s.off, "unexpected end element </%s>", raw)
	}
	top := s.open[len(s.open)-1]
	if !bytes.Equal(s.data[top.name.lo:top.name.hi], raw) {
		return s.syntaxf(s.off, "element <%s> closed by </%s>", s.data[top.name.lo:top.name.hi], raw)
	}
	s.name, s.local = top.name, top.local
	s.pop()
	return nil
}

// procInst scans a processing instruction. The XML declaration may only
// declare version 1.0 and the UTF-8 encoding.
func (s *Scanner) procInst() error {
	start := s.off + 2
	end, _, _, err := s.scanName(start, "expected target name after <?")
	if err != nil {
		return err
	}
	i := s.space(end)
	k := bytes.Index(s.data[i:], []byte("?>"))
	if k < 0 {
		return s.more()
	}
	s.off = i + k + 2
	if string(s.data[start:end]) != "xml" {
		return nil
	}
	content := string(s.data[i : i+k])
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return s.syntaxf(s.off, "unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return s.syntaxf(s.off, "encoding %q declared; only UTF-8 is supported", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param in a processing
// instruction's content, or "", with encoding/xml's procInst rules.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// markupDecl scans what starts with "<!": a comment, a CDATA section or
// a directive.
func (s *Scanner) markupDecl() error {
	data := s.data
	i := s.off + 2
	if i >= len(data) {
		return s.more()
	}
	switch data[i] {
	case '-':
		if i+1 >= len(data) {
			return s.more()
		}
		if data[i+1] != '-' {
			return s.syntaxf(i+1, "invalid sequence <!- not part of <!--")
		}
		i += 2
		k := bytes.Index(data[i:], []byte("--"))
		if k < 0 || i+k+2 >= len(data) {
			return s.more()
		}
		if j := i + k + 2; data[j] != '>' {
			return s.syntaxf(j, `invalid sequence "--" not allowed in comments`)
		}
		s.off = i + k + 3
		return nil
	case '[':
		i++
		for k := 0; k < len("CDATA["); k++ {
			if i+k >= len(data) {
				return s.more()
			}
			if data[i+k] != "CDATA["[k] {
				return s.syntaxf(i+k, "invalid <![ sequence")
			}
		}
		s.off = i + len("CDATA[")
		return s.charData(true)
	}
	return s.directive()
}

// directive scans a directive such as <!DOCTYPE ...> the way
// encoding/xml does (quotes and nested angle brackets, comments replaced
// by a space) and rejects DOCTYPE and ENTITY once it is complete.
func (s *Scanner) directive() error {
	data := s.data
	i := s.off + 2
	body := []byte{data[i]}
	i++
	var inquote byte
	depth := 0
	for {
		if i >= len(data) {
			return s.more()
		}
		b := data[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	handle:
		body = append(body, b)
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			const open = "!--"
			for k := 0; k < len(open); k++ {
				if i >= len(data) {
					return s.more()
				}
				b = data[i]
				i++
				if b != open[k] {
					body = append(body, open[:k]...)
					depth++
					goto handle
				}
			}
			body = body[:len(body)-1]
			var c0, c1 byte
			for {
				if i >= len(data) {
					return s.more()
				}
				b = data[i]
				i++
				if c0 == '-' && c1 == '-' && b == '>' {
					break
				}
				c0, c1 = c1, b
			}
			body = append(body, ' ')
		}
	}
	s.off = i
	dir := strings.ToUpper(strings.TrimSpace(string(body)))
	if strings.HasPrefix(dir, "DOCTYPE") || strings.HasPrefix(dir, "ENTITY") {
		line, col := s.Pos()
		return &limits.PosError{Op: "xml", Line: line, Col: col, Err: limits.ErrDTD}
	}
	return nil
}

// Local returns the current element's local name, a slice of the input.
func (s *Scanner) Local() []byte { return s.data[s.local.lo:s.local.hi] }

// IsLocal reports whether the current element's local name is local.
func (s *Scanner) IsLocal(local string) bool {
	return string(s.data[s.local.lo:s.local.hi]) == local
}

// In reports whether the current element is in namespace uri.
func (s *Scanner) In(uri string) bool { return s.in(s.name, s.local, true, uri) }

// Space returns the namespace of the current element.
func (s *Scanner) Space() string { return s.spaceOf(s.name, s.local, true) }

// namespace resolves the namespace of a name under the bindings in
// scope, with encoding/xml's translation: the xmlns prefix stands for
// itself, the xml prefix for the XML namespace, an unprefixed attribute
// (or element named xmlns) has none, and the default namespace applies
// to element names only. When bound is false the namespace is prefix,
// an unbound prefix standing for itself.
func (s *Scanner) namespace(name, local span, element bool) (uri string, bound bool, prefix []byte) {
	prefix = s.data[name.lo:name.lo]
	if local.lo > name.lo {
		prefix = s.data[name.lo : local.lo-1]
	}
	switch {
	case string(prefix) == "xmlns":
		return "xmlns", true, prefix
	case len(prefix) == 0 && !element:
		return "", true, prefix
	case string(prefix) == "xml":
		return xmlNamespace, true, prefix
	case len(prefix) == 0 && string(s.data[local.lo:local.hi]) == "xmlns":
		return "", true, prefix
	}
	uri, bound = s.ns[string(prefix)]
	return uri, bound, prefix
}

// in reports whether a name resolves to namespace uri.
func (s *Scanner) in(name, local span, element bool, uri string) bool {
	ns, bound, prefix := s.namespace(name, local, element)
	if bound {
		return ns == uri
	}
	return string(prefix) == uri
}

// spaceOf returns the namespace a name resolves to.
func (s *Scanner) spaceOf(name, local span, element bool) string {
	ns, bound, prefix := s.namespace(name, local, element)
	if bound {
		return ns
	}
	return string(prefix)
}

// Attr returns the decoded value of the current element's first
// attribute with the given local name, whatever its namespace, or nil.
func (s *Scanner) Attr(local string) []byte {
	for k := range s.attrs {
		a := &s.attrs[k]
		if string(s.data[a.local.lo:a.local.hi]) == local {
			return s.value(a)
		}
	}
	return nil
}

// NumAttr returns the number of attributes of the current start
// element. The attribute accessors take an index below it, in document
// order, and are valid after Start only.
func (s *Scanner) NumAttr() int { return len(s.attrs) }

// AttrLocal returns the local name of attribute i, a slice of the input.
func (s *Scanner) AttrLocal(i int) []byte {
	a := &s.attrs[i]
	return s.data[a.local.lo:a.local.hi]
}

// AttrIn reports whether attribute i is in namespace uri.
func (s *Scanner) AttrIn(i int, uri string) bool {
	a := &s.attrs[i]
	return s.in(a.name, a.local, false, uri)
}

// AttrSpace returns the namespace of attribute i.
func (s *Scanner) AttrSpace(i int) string {
	a := &s.attrs[i]
	return s.spaceOf(a.name, a.local, false)
}

// AttrValue returns the decoded value of attribute i.
func (s *Scanner) AttrValue(i int) []byte { return s.value(&s.attrs[i]) }

// value returns an attribute's decoded value: a slice of the input when
// decoding changes nothing, else a fresh copy.
func (s *Scanner) value(a *rawAttr) []byte {
	if !a.escaped {
		return s.data[a.val.lo:a.val.hi]
	}
	return s.appendDecoded(make([]byte, 0, a.vlen), a.val.lo, a.val.hi, true)
}

// AppendText appends the decoded character data between the previous
// token and the current one to dst: text runs and CDATA sections, in
// document order, without the comments, processing instructions and
// directives among them.
func (s *Scanner) AppendText(dst []byte) []byte {
	if !s.markup {
		return s.appendDecoded(dst, s.textLo, s.textHi, true)
	}
	// Replay the markup to find the runs between it. Next has checked
	// it already, so the replay cannot fail.
	off := s.off
	for s.off = s.textLo; s.off < s.textHi; {
		if s.data[s.off] != '<' {
			end := s.textHi
			if k := bytes.IndexByte(s.data[s.off:end], '<'); k >= 0 {
				end = s.off + k
			}
			dst = s.appendDecoded(dst, s.off, end, true)
			s.off = end
			continue
		}
		if s.data[s.off+1] == '?' {
			_ = s.procInst()
			continue
		}
		lo := s.off + len("<![CDATA[")
		cdata := bytes.HasPrefix(s.data[s.off:], []byte("<![CDATA["))
		_ = s.markupDecl()
		if cdata {
			dst = s.appendDecoded(dst, lo, s.off-len("]]>"), false)
		}
	}
	s.off = off
	return dst
}

// appendDecoded appends the checked character data in [lo, hi) to dst
// with \r\n and \r read as \n and, when refs is set, references
// replaced by their characters.
func (s *Scanner) appendDecoded(dst []byte, lo, hi int, refs bool) []byte {
	var prev byte
	for i := lo; i < hi; {
		switch b := s.data[i]; {
		case b == '&' && refs:
			r, next, _ := s.reference(i)
			dst = utf8.AppendRune(dst, r)
			i = next
			prev = 0
			continue
		case b == '\r':
			dst = append(dst, '\n')
		case b == '\n' && prev == '\r':
		default:
			dst = append(dst, b)
		}
		prev = s.data[i]
		i++
	}
	return dst
}
