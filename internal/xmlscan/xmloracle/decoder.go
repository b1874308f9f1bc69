// Package xmloracle is the test-only reference reader of the XML
// ingest paths. Production code never imports it; only _test.go files
// do. Decoder is the guarded encoding/xml decoder the XMI importer, the
// XSD parser and the instance validator read through before
// internal/xmlscan replaced it, kept unchanged so the differential tests
// of all three readers can compare the scanner with it. Outcome and
// EarlyCut are the rule those tests share for when two readers reject
// an input alike.
package xmloracle

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/go-ccts/ccts/internal/limits"
)

// tracker counts the bytes flowing into the XML decoder, records the
// offset of every newline so offsets map back to line:col, and cuts the
// stream off at MaxInputBytes.
type tracker struct {
	r        io.Reader
	max      int64
	n        int64
	newlines []int64
}

func (t *tracker) Read(p []byte) (int, error) {
	if t.max > 0 {
		if t.n >= t.max {
			line, col := t.pos(t.n)
			return 0, &limits.Violation{
				Limit:  "MaxInputBytes",
				Detail: fmt.Sprintf("input exceeds %d bytes", t.max),
				Line:   line, Col: col,
			}
		}
		if rest := t.max - t.n; int64(len(p)) > rest {
			p = p[:rest]
		}
	}
	n, err := t.r.Read(p)
	for i := 0; i < n; i++ {
		if p[i] == '\n' {
			t.newlines = append(t.newlines, t.n+int64(i))
		}
	}
	t.n += int64(n)
	return n, err
}

// pos maps a byte offset into the consumed stream to a 1-based
// line:col. Offsets at or past the consumed prefix map to its end.
func (t *tracker) pos(off int64) (line, col int) {
	if off > t.n {
		off = t.n
	}
	i := sort.Search(len(t.newlines), func(i int) bool { return t.newlines[i] >= off })
	start := int64(0)
	if i > 0 {
		start = t.newlines[i-1] + 1
	}
	return i + 1, int(off-start) + 1
}

// Decoder wraps an xml.Decoder with limit enforcement, DTD rejection
// and position reporting. It exposes the token-stream subset the
// parsers consume (Token, Skip) so they cannot bypass the checks.
type Decoder struct {
	dec      *xml.Decoder
	tr       *tracker
	lim      limits.Limits
	depth    int
	elements int
}

// NewDecoder returns a guarded decoder reading from r.
func NewDecoder(r io.Reader, lim limits.Limits) *Decoder {
	tr := &tracker{r: r, max: lim.MaxInputBytes}
	return &Decoder{dec: xml.NewDecoder(tr), tr: tr, lim: lim}
}

// InputOffset returns the byte offset after the most recent token.
func (d *Decoder) InputOffset() int64 { return d.dec.InputOffset() }

// Pos returns the 1-based line:col of the decoder's current input
// offset.
func (d *Decoder) Pos() (line, col int) { return d.tr.pos(d.dec.InputOffset()) }

func (d *Decoder) violation(limit, format string, args ...any) error {
	line, col := d.Pos()
	return &limits.Violation{Limit: limit, Detail: fmt.Sprintf(format, args...), Line: line, Col: col}
}

// Wrap attaches the decoder's current position to a parse error. Errors
// that already carry a position (Violation, PosError) and io.EOF pass
// through unchanged.
func (d *Decoder) Wrap(op string, err error) error {
	if err == nil || err == io.EOF {
		return err
	}
	var pe *limits.PosError
	var v *limits.Violation
	if errors.As(err, &pe) || errors.As(err, &v) {
		return err
	}
	line, col := d.Pos()
	return &limits.PosError{Op: op, Line: line, Col: col, Err: err}
}

// Token returns the next XML token, enforcing every configured limit
// and rejecting DOCTYPE/entity directives.
func (d *Decoder) Token() (xml.Token, error) {
	tok, err := d.dec.Token()
	if err != nil {
		return nil, err
	}
	switch t := tok.(type) {
	case xml.StartElement:
		d.depth++
		if d.lim.MaxDepth > 0 && d.depth > d.lim.MaxDepth {
			return nil, d.violation("MaxDepth", "element <%s> nests deeper than %d levels", t.Name.Local, d.lim.MaxDepth)
		}
		d.elements++
		if d.lim.MaxElements > 0 && d.elements > d.lim.MaxElements {
			return nil, d.violation("MaxElements", "document has more than %d elements", d.lim.MaxElements)
		}
		if d.lim.MaxAttributes > 0 && len(t.Attr) > d.lim.MaxAttributes {
			return nil, d.violation("MaxAttributes", "element <%s> has %d attributes (limit %d)", t.Name.Local, len(t.Attr), d.lim.MaxAttributes)
		}
		if d.lim.MaxTokenLen > 0 {
			if len(t.Name.Local) > d.lim.MaxTokenLen {
				return nil, d.violation("MaxTokenLen", "element name longer than %d bytes", d.lim.MaxTokenLen)
			}
			for _, a := range t.Attr {
				if len(a.Name.Local) > d.lim.MaxTokenLen || len(a.Value) > d.lim.MaxTokenLen {
					return nil, d.violation("MaxTokenLen", "attribute %q of <%s> longer than %d bytes", a.Name.Local, t.Name.Local, d.lim.MaxTokenLen)
				}
			}
		}
	case xml.EndElement:
		d.depth--
	case xml.CharData:
		if d.lim.MaxTokenLen > 0 && len(t) > d.lim.MaxTokenLen {
			return nil, d.violation("MaxTokenLen", "character data longer than %d bytes", d.lim.MaxTokenLen)
		}
	case xml.Directive:
		dir := strings.ToUpper(strings.TrimSpace(string(t)))
		if strings.HasPrefix(dir, "DOCTYPE") || strings.HasPrefix(dir, "ENTITY") {
			line, col := d.Pos()
			return nil, &limits.PosError{Op: "xml", Line: line, Col: col, Err: limits.ErrDTD}
		}
	}
	return tok, nil
}

// Skip reads tokens until the end element matching the most recent
// start element, running every token through the limit checks (unlike
// xml.Decoder.Skip, which would bypass them).
func (d *Decoder) Skip() error {
	for {
		tok, err := d.Token()
		if err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		switch tok.(type) {
		case xml.StartElement:
			if err := d.Skip(); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		}
	}
}
