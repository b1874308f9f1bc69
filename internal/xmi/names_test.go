package xmi

import (
	"encoding/xml"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xmlscan"
)

// TestNameTablesMatchEncodingXML checks the element names the XMI
// reader's scanner accepts against encoding/xml for every non-ASCII
// character of the Basic Multilingual Plane and a few beyond it, as the
// first character of a name and after one.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(name string) bool {
		_, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		return err == nil
	}
	scans := func(name string) bool {
		_, err := xmlscan.New([]byte("<"+name+"/>"), limits.Unlimited(), "xmi").Next()
		return err == nil
	}
	check := func(r rune) {
		if !utf8.ValidRune(r) {
			return
		}
		c := string(r)
		if got, want := scans(c), accepts(c); got != want {
			t.Errorf("%U first: scanner accepts = %v, encoding/xml accepts = %v", r, got, want)
		}
		if got, want := scans("a"+c), accepts("a"+c); got != want {
			t.Errorf("%U after a letter: scanner accepts = %v, encoding/xml accepts = %v", r, got, want)
		}
	}
	for r := rune(utf8.RuneSelf); r <= 0xFFFF; r++ {
		check(r)
	}
	for _, r := range []rune{0x10000, 0x1F600, 0xE0100, 0x10FFFF} {
		check(r)
	}
}
