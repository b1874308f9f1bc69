package xmlesc

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestEscapes(t *testing.T) {
	cases := []struct{ in, attr, text string }{
		{"", "", ""},
		{"plain ASCII", "plain ASCII", "plain ASCII"},
		{`a&b<c>d"e'f`, `a&amp;b&lt;c&gt;d&quot;e'f`, `a&amp;b&lt;c&gt;d&quot;e'f`},
		{"C:\\dir\u00a0x", "C:\\dir\u00a0x", "C:\\dir\u00a0x"},
		{"tab\tnl\ncr\r", "tab&#x9;nl&#xA;cr&#xD;", "tab\tnl\ncr&#xD;"},
		{"nul\x00bel\x07", "nul\uFFFDbel\uFFFD", "nul\uFFFDbel\uFFFD"},
		{"bad\xffutf8", "bad\uFFFDutf8", "bad\uFFFDutf8"},
		{"nonchar\uFFFE\uFFFF", "nonchar\uFFFD\uFFFD", "nonchar\uFFFD\uFFFD"},
		{"kept\uFFFD\U0001F600\u0085\x7f", "kept\uFFFD\U0001F600\u0085\x7f", "kept\uFFFD\U0001F600\u0085\x7f"},
	}
	for _, c := range cases {
		var a, x bytes.Buffer
		Attr(&a, c.in)
		Text(&x, c.in)
		if a.String() != c.attr {
			t.Errorf("Attr(%q) = %q, want %q", c.in, a.String(), c.attr)
		}
		if x.String() != c.text {
			t.Errorf("Text(%q) = %q, want %q", c.in, x.String(), c.text)
		}
	}
}

// TestRoundTripProperty checks random strings over fragments that need
// care (markup, whitespace, controls, bad UTF-8, non-characters, plain
// text): encoding/xml reads back every character XML can carry
// unchanged and U+FFFD for the rest.
func TestRoundTripProperty(t *testing.T) {
	fragments := []string{"&", "<", ">", `"`, "'", "\t", "\n", "\r", "\x00", "\x1f", `\`,
		"\xff", "\xe2\x82", "\u00a0", "\uFFFE", "\uFFFF", "\uFFFD", "\U0001F600", "abc", " "}
	gen := func(args []reflect.Value, r *rand.Rand) {
		var b strings.Builder
		for n := r.Intn(24); n > 0; n-- {
			b.WriteString(fragments[r.Intn(len(fragments))])
		}
		args[0] = reflect.ValueOf(b.String())
	}
	carried := func(r rune) rune {
		if r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r != 0xFFFE && r != 0xFFFF {
			return r
		}
		return utf8.RuneError
	}
	f := func(v string) bool {
		var b bytes.Buffer
		b.WriteString(`<e v="`)
		Attr(&b, v)
		b.WriteString(`">`)
		Text(&b, v)
		b.WriteString(`</e>`)
		var got struct {
			V    string `xml:"v,attr"`
			Text string `xml:",chardata"`
		}
		if err := xml.Unmarshal(b.Bytes(), &got); err != nil {
			t.Logf("%q: %v", v, err)
			return false
		}
		want := strings.Map(carried, v)
		return got.V == want && got.Text == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Values: gen}); err != nil {
		t.Error(err)
	}
}

func TestUnescapedValueAllocatesNothing(t *testing.T) {
	var b bytes.Buffer
	b.Grow(1 << 10)
	v := strings.Repeat("Identifier. Type ", 4)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		Attr(&b, v)
		Text(&b, v)
	})
	if allocs != 0 {
		t.Errorf("escaping a clean value allocated %.0f times", allocs)
	}
}
