package limits_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	. "github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan"
)

// The policy is enforced by one reader, internal/xmlscan, for XMI, XSD
// and instance documents alike; these tests check each limit through it.

// scan returns a scanner over doc under lim.
func scan(doc string, lim Limits) *xmlscan.Scanner {
	return xmlscan.New([]byte(doc), lim, "test")
}

// drain pulls tokens until an error or EOF and returns the error.
func drain(s *xmlscan.Scanner) error {
	for {
		_, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestUnlimitedPassesEverything(t *testing.T) {
	doc := `<a><b deep="` + strings.Repeat("x", 4096) + `"><c/></b></a>`
	if err := drain(scan(doc, Unlimited())); err != nil {
		t.Fatalf("unlimited decode failed: %v", err)
	}
}

func TestOrDefaultKeepsUnlimited(t *testing.T) {
	if got := (Limits{}).OrDefault(); got != Default() {
		t.Errorf("zero Limits resolves to %+v, want Default", got)
	}
	if got := Unlimited().OrDefault(); got != Unlimited() {
		t.Errorf("Unlimited resolves to %+v, want Unlimited", got)
	}
	custom := Limits{MaxDepth: 4}
	if got := custom.OrDefault(); got != custom {
		t.Errorf("custom limits resolve to %+v, want %+v", got, custom)
	}
}

func TestMaxDepth(t *testing.T) {
	doc := strings.Repeat("<p>", 12) + strings.Repeat("</p>", 12)
	err := drain(scan(doc, Limits{MaxDepth: 10}))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
	var v *Violation
	if !errors.As(err, &v) || v.Limit != "MaxDepth" {
		t.Fatalf("want MaxDepth violation, got %v", err)
	}
	if v.Line != 1 || v.Col <= 1 {
		t.Errorf("violation has no useful position: line %d col %d", v.Line, v.Col)
	}
}

func TestMaxElements(t *testing.T) {
	doc := "<r>" + strings.Repeat("<e/>", 20) + "</r>"
	err := drain(scan(doc, Limits{MaxElements: 5}))
	var v *Violation
	if !errors.As(err, &v) || v.Limit != "MaxElements" {
		t.Fatalf("want MaxElements violation, got %v", err)
	}
}

func TestMaxAttributes(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r")
	for i := 0; i < 8; i++ {
		sb.WriteString(" a")
		sb.WriteByte(byte('0' + i))
		sb.WriteString(`="v"`)
	}
	sb.WriteString("/>")
	err := drain(scan(sb.String(), Limits{MaxAttributes: 4}))
	var v *Violation
	if !errors.As(err, &v) || v.Limit != "MaxAttributes" {
		t.Fatalf("want MaxAttributes violation, got %v", err)
	}
}

func TestMaxTokenLen(t *testing.T) {
	cases := map[string]string{
		"element name":    `<` + strings.Repeat("n", 100) + `/>`,
		"attribute value": `<r a="` + strings.Repeat("x", 100) + `"/>`,
		"character data":  `<r>` + strings.Repeat("y", 100) + `</r>`,
		"CDATA section":   `<r><![CDATA[` + strings.Repeat("z", 100) + `]]></r>`,
	}
	for name, doc := range cases {
		err := drain(scan(doc, Limits{MaxTokenLen: 50}))
		var v *Violation
		if !errors.As(err, &v) || v.Limit != "MaxTokenLen" {
			t.Errorf("%s: want MaxTokenLen violation, got %v", name, err)
		}
	}
}

// TestMaxInputBytes reads the document through the bounded io.Reader
// intake every entry point uses, which stops at the limit.
func TestMaxInputBytes(t *testing.T) {
	doc := "<r>" + strings.Repeat("<e></e>", 100) + "</r>"
	lim := Limits{MaxInputBytes: 64}
	data, err := xmlscan.ReadInput(strings.NewReader(doc), lim.MaxInputBytes, "test")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != lim.MaxInputBytes {
		t.Errorf("read %d bytes, want the %d the limit allows", len(data), lim.MaxInputBytes)
	}
	err = drain(xmlscan.New(data, lim, "test"))
	var v *Violation
	if !errors.As(err, &v) || v.Limit != "MaxInputBytes" {
		t.Fatalf("want MaxInputBytes violation, got %v", err)
	}
	if !errors.Is(err, ErrLimit) {
		t.Error("violation does not match ErrLimit")
	}
}

func TestDTDRejected(t *testing.T) {
	docs := []string{
		`<!DOCTYPE r [<!ENTITY a "b">]><r>&a;</r>`,
		`<!DOCTYPE r SYSTEM "http://evil.example/r.dtd"><r/>`,
	}
	for _, doc := range docs {
		err := drain(scan(doc, Default()))
		if !errors.Is(err, ErrDTD) {
			t.Errorf("doc %q: want ErrDTD, got %v", doc, err)
		}
		var pe *PosError
		if !errors.As(err, &pe) || pe.Line < 1 {
			t.Errorf("doc %q: DTD rejection carries no position: %v", doc, err)
		}
	}
}

func TestPositionsAcrossLines(t *testing.T) {
	doc := "<a>\n  <b>\n    <c></c>\n  </b>\n</a>"
	err := drain(scan(doc, Limits{MaxDepth: 2}))
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want violation, got %v", err)
	}
	if v.Line != 3 {
		t.Errorf("deep element is on line 3, violation says line %d", v.Line)
	}
}

func TestSkipEnforcesLimits(t *testing.T) {
	// The skipped subtree hides the depth bomb; Skip must still see it.
	doc := "<a><skip>" + strings.Repeat("<p>", 12) + strings.Repeat("</p>", 12) + "</skip></a>"
	s := scan(doc, Limits{MaxDepth: 10})
	// read <a> then <skip>, then skip the subtree
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Skip()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("Skip bypassed the depth limit: %v", err)
	}
}

// TestWrapAddsPosition: a reader's own error is positioned after the
// current token and names the reader.
func TestWrapAddsPosition(t *testing.T) {
	s := scan("<a>\n<b/></a>", Unlimited())
	for i := 0; i < 2; i++ { // <a>, <b>
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Errorf("boom")
	var pe *PosError
	if !errors.As(err, &pe) || pe.Line != 2 || pe.Col != 5 || pe.Op != "test" {
		t.Fatalf("positioned error = %#v, want test at 2:5", err)
	}
	if err.Error() != "test: 2:5: boom" {
		t.Errorf("error text = %q", err)
	}
}

func TestTruncatedInputSurfacesSyntaxError(t *testing.T) {
	err := drain(scan("<a><b>unfinished", Default()))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated document: err = %v, want an unexpected EOF", err)
	}
	var pe *PosError
	if !errors.As(err, &pe) || pe.Line != 1 || pe.Col != 17 {
		t.Errorf("truncation error carries no position at the end of input: %v", err)
	}
}
