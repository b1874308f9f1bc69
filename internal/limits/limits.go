// Package limits hardens the XML ingestion boundary. The system's front
// door accepts XMI and XSD documents produced by arbitrary external
// tools, so every parser runs behind configurable resource limits (input
// size, element depth, element and attribute counts, token length) and
// rejects DTD/entity declarations outright. Violations surface as
// structured errors carrying the line:col position where the limit was
// crossed, so a validation engine can report them instead of a worker
// hanging or exhausting memory. Decoder applies the limits to
// encoding/xml for the XSD parser; the XMI importer's own scanner
// applies them itself, at the same token boundaries.
package limits

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Limits bounds the resources one parsed document may consume. A zero
// or negative field disables that particular limit; the zero value
// disables all of them (use Default for production parsing).
// Configuration structs read a zero Limits as unset (see OrDefault).
type Limits struct {
	// MaxInputBytes caps the total bytes read from the input stream.
	MaxInputBytes int64
	// MaxDepth caps element nesting depth.
	MaxDepth int
	// MaxElements caps the total number of start elements.
	MaxElements int
	// MaxAttributes caps the attribute count of a single element.
	MaxAttributes int
	// MaxTokenLen caps the byte length of a single name, attribute
	// value or character-data run.
	MaxTokenLen int
}

// Default returns the production limits: generous enough for any real
// core components model, tight enough that a hostile document fails
// fast instead of exhausting a worker.
func Default() Limits {
	return Limits{
		MaxInputBytes: 64 << 20, // 64 MiB
		MaxDepth:      100,
		MaxElements:   1 << 20, // ~1M elements
		MaxAttributes: 256,
		MaxTokenLen:   1 << 20, // 1 MiB
	}
}

// Unlimited returns limits with every check disabled, for trusted
// in-process round trips. Its fields are negative, so OrDefault keeps it
// where it replaces the zero value.
func Unlimited() Limits {
	return Limits{MaxInputBytes: -1, MaxDepth: -1, MaxElements: -1, MaxAttributes: -1, MaxTokenLen: -1}
}

// OrDefault resolves a configured Limits: the zero value, an unset
// configuration field, means Default; anything else, Unlimited included,
// stands.
func (l Limits) OrDefault() Limits {
	if l == (Limits{}) {
		return Default()
	}
	return l
}

// ErrLimit is matched by errors.Is for every limit violation.
var ErrLimit = errors.New("input limit exceeded")

// ErrDTD is matched by errors.Is for rejected DOCTYPE/entity
// declarations (a standing XML-ingestion hazard; the NDR subset never
// uses them).
var ErrDTD = errors.New("DTD and entity declarations are not allowed")

// Violation is a structured limit-violation error with the input
// position at which the limit was crossed.
type Violation struct {
	// Limit names the exceeded limit field, e.g. "MaxDepth".
	Limit string
	// Detail describes the violation in document terms.
	Detail string
	// Line and Col locate the violation (1-based).
	Line, Col int
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("%d:%d: %s [%s]", v.Line, v.Col, v.Detail, v.Limit)
}

// Is reports ErrLimit so callers can match any violation.
func (v *Violation) Is(target error) bool { return target == ErrLimit }

// PosError decorates a parse error with the input position where the
// decoder stood when it occurred.
type PosError struct {
	// Op is the subsystem reporting the error ("xmi", "xsd", "xml").
	Op string
	// Line and Col locate the error (1-based).
	Line, Col int
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *PosError) Error() string {
	return fmt.Sprintf("%s: %d:%d: %v", e.Op, e.Line, e.Col, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PosError) Unwrap() error { return e.Err }

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
			return 0, &Violation{
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
	lim      Limits
	depth    int
	elements int
}

// NewDecoder returns a guarded decoder reading from r.
func NewDecoder(r io.Reader, lim Limits) *Decoder {
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
	return &Violation{Limit: limit, Detail: fmt.Sprintf(format, args...), Line: line, Col: col}
}

// Wrap attaches the decoder's current position to a parse error. Errors
// that already carry a position (Violation, PosError) and io.EOF pass
// through unchanged.
func (d *Decoder) Wrap(op string, err error) error {
	if err == nil || err == io.EOF {
		return err
	}
	var pe *PosError
	var v *Violation
	if errors.As(err, &pe) || errors.As(err, &v) {
		return err
	}
	line, col := d.Pos()
	return &PosError{Op: op, Line: line, Col: col, Err: err}
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
			return nil, &PosError{Op: "xml", Line: line, Col: col, Err: ErrDTD}
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
