package xmlscan_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan"
	"github.com/go-ccts/ccts/internal/xmlscan/xmloracle"
)

// scanTokens renders the scanner's view of doc: each element token with
// its translated name, its attributes and the offset after it, preceded
// by the character data since the previous one.
func scanTokens(doc string) ([]string, error) {
	s := xmlscan.New([]byte(doc), limits.Unlimited(), "test")
	var out []string
	for {
		kind, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if text := s.AppendText(nil); len(text) > 0 {
			out = append(out, fmt.Sprintf("text %q", text))
		}
		if kind == xmlscan.End {
			out = append(out, fmt.Sprintf("end %s @%d", s.Local(), s.Offset()))
			continue
		}
		tok := fmt.Sprintf("start {%s}%s @%d", s.Space(), s.Local(), s.Offset())
		for i := 0; i < s.NumAttr(); i++ {
			tok += fmt.Sprintf(" {%s}%s=%q", s.AttrSpace(i), s.AttrLocal(i), s.AttrValue(i))
		}
		out = append(out, tok)
	}
}

// oracleTokens renders the same view through the encoding/xml oracle.
func oracleTokens(doc string) ([]string, error) {
	d := xmloracle.NewDecoder(strings.NewReader(doc), limits.Unlimited())
	var out []string
	var text []byte
	flush := func() {
		if len(text) > 0 {
			out = append(out, fmt.Sprintf("text %q", text))
			text = nil
		}
	}
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			text = append(text, t...)
		case xml.EndElement:
			flush()
			out = append(out, fmt.Sprintf("end %s @%d", t.Name.Local, d.InputOffset()))
		case xml.StartElement:
			flush()
			tok := fmt.Sprintf("start {%s}%s @%d", t.Name.Space, t.Name.Local, d.InputOffset())
			for _, a := range t.Attr {
				tok += fmt.Sprintf(" {%s}%s=%q", a.Name.Space, a.Name.Local, a.Value)
			}
			out = append(out, tok)
		}
	}
}

// TestTokensMatchEncodingXML compares names, namespaces, attribute
// values, character data and offsets token by token with encoding/xml.
func TestTokensMatchEncodingXML(t *testing.T) {
	docs := []string{
		`<a xmlns="urn:d" xmlns:p="urn:p" p:x="1" y="2"><p:b xmlns:p="urn:q" p:z="3"/><c xmlns=""/><p:d/></a>`,
		`<u:a x:b="1" xml:lang="en" xmlns:x="xmlns" xmlns:xmlns="urn:n"><xmlns/><xml:c/></u:a>`,
		`<:a :b="1"><a: b:="2"/></:a>`,
		"<a> one &amp; <![CDATA[ <two> & ]]> three <!-- c --> four <?pi?>\r\nfive\r<b/>six</a>",
		"<a>x\r<!---->\ny<![CDATA[\r\n]]>&#13;&#x41;&lt;</a>",
		`<a b="&lt;&#65;&quot;" c='it''s' d="x&#10;y"/>`,
		"<a b=\"line\rbreak\r\nhere\">\n\t<c/>\n</a>",
		`<!ELEMENT x ANY><a><!x <!-- c --> "q>" 'r<' <y>></a>`,
		"<a>t1<!x \"q>\" <y>>t2<?p x?>t3<![CDATA[c\r\n]]>t4<!---->\r</a>",
		"\xef\xbb\xbf<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<a/>\n",
		`<a>ünï <名前 属性="値">text</名前></a>`,
		`<a></b>`,
		`<a><b></a>`,
		`<a>&bogus;</a>`,
		`<!DOCTYPE a><a/>`,
		`<a b="1"`,
	}
	for _, doc := range docs {
		got, gerr := scanTokens(doc)
		want, werr := oracleTokens(doc)
		if g, w := xmloracle.Outcome(gerr), xmloracle.Outcome(werr); g != w {
			t.Errorf("%q: scanner %s (%v), oracle %s (%v)", doc, g, gerr, w, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\nscanner %q\noracle  %q", doc, got, want)
		}
	}
}

// TestErrorsNameTheReader: the scanner's positioned errors carry the op
// it was created with.
func TestErrorsNameTheReader(t *testing.T) {
	s := xmlscan.New([]byte("<a>\n<b></c>"), limits.Default(), "xsd")
	var err error
	for err == nil {
		_, err = s.Next()
	}
	var pe *limits.PosError
	if !errors.As(err, &pe) || pe.Op != "xsd" || pe.Line != 2 {
		t.Errorf("err = %#v, want an xsd error on line 2", err)
	}
}

// TestReadInputStopsAtLimit: the bounded intake reads no more than its
// limit, and reports a read error under the reader's name.
func TestReadInputStopsAtLimit(t *testing.T) {
	data, err := xmlscan.ReadInput(strings.NewReader(strings.Repeat("x", 100)), 10, "xsdval")
	if err != nil || len(data) != 10 {
		t.Errorf("ReadInput = %d bytes, %v; want 10 bytes", len(data), err)
	}
	_, err = xmlscan.ReadInput(io.MultiReader(strings.NewReader("<a>"), errReader{}), 0, "xsdval")
	if err == nil || !strings.HasPrefix(err.Error(), "xsdval: reading input: ") {
		t.Errorf("read error = %v, want it named after the reader", err)
	}
}

// TestReadInputFiles: a regular file is read from its offset to its
// end, or to the limit, into one buffer of that size; a pipe, which
// has no size, is read whole all the same.
func TestReadInputFiles(t *testing.T) {
	content := strings.Repeat("<a/>\n", 200<<10)
	path := filepath.Join(t.TempDir(), "in.xml")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, tc := range []struct {
		offset, max int64
		want        string
	}{
		{5, 0, content[5:]},
		{0, 100, content[:100]},
	} {
		if _, err := f.Seek(tc.offset, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		data, err := xmlscan.ReadInput(f, tc.max, "xsd")
		if err != nil || string(data) != tc.want {
			t.Fatalf("offset %d, max %d: read %d bytes, %v; want %d bytes", tc.offset, tc.max, len(data), err, len(tc.want))
		}
		// One buffer of the size, rounded up to the allocator's page.
		if c := cap(data); c > len(tc.want)+bytes.MinRead+8<<10 {
			t.Errorf("offset %d, max %d: buffer of %d bytes for %d", tc.offset, tc.max, c, len(tc.want))
		}
	}

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		io.WriteString(pw, content)
		pw.Close()
	}()
	if data, err := xmlscan.ReadInput(pr, 0, "xsd"); err != nil || string(data) != content {
		t.Fatalf("pipe: read %d bytes, %v; want %d", len(data), err, len(content))
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("disk gone") }
