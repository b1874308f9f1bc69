package limits

import (
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
)

// drain pulls tokens until an error or EOF and returns the error.
func drain(d *Decoder) error {
	for {
		_, err := d.Token()
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
	if err := drain(NewDecoder(strings.NewReader(doc), Unlimited())); err != nil {
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
	err := drain(NewDecoder(strings.NewReader(doc), Limits{MaxDepth: 10}))
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
	err := drain(NewDecoder(strings.NewReader(doc), Limits{MaxElements: 5}))
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
	err := drain(NewDecoder(strings.NewReader(sb.String()), Limits{MaxAttributes: 4}))
	var v *Violation
	if !errors.As(err, &v) || v.Limit != "MaxAttributes" {
		t.Fatalf("want MaxAttributes violation, got %v", err)
	}
}

func TestMaxTokenLen(t *testing.T) {
	cases := map[string]string{
		"attribute value": `<r a="` + strings.Repeat("x", 100) + `"/>`,
		"character data":  `<r>` + strings.Repeat("y", 100) + `</r>`,
	}
	for name, doc := range cases {
		err := drain(NewDecoder(strings.NewReader(doc), Limits{MaxTokenLen: 50}))
		var v *Violation
		if !errors.As(err, &v) || v.Limit != "MaxTokenLen" {
			t.Errorf("%s: want MaxTokenLen violation, got %v", name, err)
		}
	}
}

func TestMaxInputBytes(t *testing.T) {
	doc := "<r>" + strings.Repeat("<e></e>", 100) + "</r>"
	err := drain(NewDecoder(strings.NewReader(doc), Limits{MaxInputBytes: 64}))
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
		err := drain(NewDecoder(strings.NewReader(doc), Default()))
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
	d := NewDecoder(strings.NewReader(doc), Limits{MaxDepth: 2})
	err := drain(d)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want violation, got %v", err)
	}
	if v.Line != 3 {
		t.Errorf("deep element is on line 3, violation says line %d", v.Line)
	}
}

func TestSkipEnforcesLimits(t *testing.T) {
	// The skipped subtree hides the depth bomb; Decoder.Skip must still
	// see it.
	doc := "<a><skip>" + strings.Repeat("<p>", 12) + strings.Repeat("</p>", 12) + "</skip></a>"
	d := NewDecoder(strings.NewReader(doc), Limits{MaxDepth: 10})
	// read <a> then <skip>, then skip the subtree
	for i := 0; i < 2; i++ {
		if _, err := d.Token(); err != nil {
			t.Fatal(err)
		}
	}
	err := d.Skip()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("Skip bypassed the depth limit: %v", err)
	}
}

func TestWrapAddsPosition(t *testing.T) {
	d := NewDecoder(strings.NewReader("<a>\n<b/></a>"), Unlimited())
	for i := 0; i < 3; i++ { // <a>, chardata, <b>
		if _, err := d.Token(); err != nil {
			t.Fatal(err)
		}
	}
	err := d.Wrap("test", errors.New("boom"))
	var pe *PosError
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("wrapped error has wrong position: %v", err)
	}
	// Already-positional errors pass through unchanged.
	if got := d.Wrap("test", err); got != err {
		t.Error("Wrap re-wrapped a positional error")
	}
	if got := d.Wrap("test", io.EOF); got != io.EOF {
		t.Error("Wrap wrapped io.EOF")
	}
}

func TestTruncatedInputSurfacesSyntaxError(t *testing.T) {
	err := drain(NewDecoder(strings.NewReader("<a><b>unfinished"), Default()))
	if err == nil {
		t.Fatal("truncated document decoded cleanly")
	}
	var se *xml.SyntaxError
	if !errors.As(err, &se) && err != io.ErrUnexpectedEOF {
		t.Logf("truncation error type %T: %v", err, err)
	}
}
