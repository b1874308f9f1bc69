package xmi_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/profile"
	. "github.com/go-ccts/ccts/internal/xmi"
)

// tightLimits are small enough that short inputs cross every limit,
// MaxInputBytes included; the seeds sit on both sides of each.
var tightLimits = limits.Limits{MaxInputBytes: 2048, MaxDepth: 6, MaxElements: 40, MaxAttributes: 6, MaxTokenLen: 48}

// differentialOptions are the option sets both readers are compared
// under: strict and lenient, with the default and with tight limits.
// The lenient stereotype checker rejects every odd-length stereotype,
// so real exports produce XMI-STEREO diagnostics too.
func differentialOptions() []ImportOptions {
	known := func(_, st string) bool { return len(st)%2 == 0 }
	return []ImportOptions{
		{Limits: limits.Default()},
		{Limits: limits.Default(), Lenient: true, StereotypeKnown: known},
		{Limits: tightLimits},
		{Limits: tightLimits, Lenient: true, StereotypeKnown: known},
	}
}

// compareReaders imports doc with ImportBytes and with the oracle and
// fails unless both return deeply equal models and diagnostics, or both
// reject it alike.
func compareReaders(t testing.TB, name string, doc []byte, opts ImportOptions) {
	t.Helper()
	gm, gd, gerr := ImportBytes(doc, opts)
	wm, wd, werr := oracleImportWithOptions(bytes.NewReader(doc), opts)
	mode := fmt.Sprintf("%s (lenient=%v, limits=%+v)", name, opts.Lenient, opts.Limits)
	if g, w := outcome(gerr), outcome(werr); g != w {
		if !earlyCut(gerr, werr) {
			t.Errorf("%s: scanner %s (%v), oracle %s (%v)", mode, g, gerr, w, werr)
		}
		return
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(gm, wm) {
		t.Errorf("%s: models differ", mode)
	}
	if !reflect.DeepEqual(gd, wd) {
		t.Errorf("%s: diagnostics differ:\nscanner %v\noracle  %v", mode, gd, wd)
	}
}

// wrap places body inside a class of a minimal XMI document, at depth
// 5, after five elements; no element has more than six attributes.
func wrap(body string) string {
	return `<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1">` +
		`<uml:Model xmi:id="m" name="M"><packagedElement xmi:type="uml:Package" xmi:id="p" name="Lib" stereotype="BIELibrary">` +
		`<packagedElement xmi:type="uml:Class" xmi:id="c" name="C" stereotype="ABIE">` + body +
		`</packagedElement><packagedElement xmi:type="uml:Association" xmi:id="a" stereotype="ASBIE" role="R" source="c" target="c"/>` +
		`</packagedElement></uml:Model></xmi:XMI>`
}

// padTo pads the head of a document with spaces before tail so that the
// whole is exactly n bytes long.
func padTo(n int, head, tail string) string {
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// differentialSeeds are small documents covering the XML subset the
// scanner reads and the ways input can leave it. FuzzImport starts from
// them and TestReadersAgree runs every one.
func differentialSeeds() []string {
	attr := `<ownedAttribute xmi:id="x" name="%s" stereotype="BBIE" type="T"/>`
	tv := `<taggedValue tag="t" value="v"/>`
	full := wrap(`<taggedValue tag="t" value="v"/>` + fmt.Sprintf(attr, "A"))
	model := `<uml:Model xmi:id="m" name="M">`
	seeds := []string{
		full,
		"",
		`<broken`,
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1" xmlns:uml="http://schema.omg.org/spec/UML/2.1"><uml:Model xmi:id="m" name="X"></uml:Model></xmi:XMI>`,
		// Declarations and processing instructions.
		`<?xml version="1.0" encoding="UTF-8"?>` + full,
		`<?xml version="1.0" encoding='utf-8'?>` + full,
		`<?xml version="1.0" encoding="ISO-8859-1"?>` + full,
		`<?xml version="1.1"?>` + full,
		`<?xml-stylesheet href="a.xsl"?>` + full,
		wrap(`<?pi data?><?pi?>`),
		`<??>` + full,
		`<?xml version="1.0"`,
		// CDATA sections and comments.
		wrap(`<![CDATA[ <x> & ]] ]]]>`),
		wrap(`<![CDATA[ unterminated`),
		wrap(`<![CDAT[x]]>`),
		wrap(`<!-- comment --><!----><!-- a - b -->`),
		wrap(`<!-- a -- b -->`),
		wrap(`<!--->`),
		wrap(`<!- x -->`),
		wrap(`text ]]> text`),
		// Character and entity references.
		wrap(fmt.Sprintf(attr, "A&#66;&#x43;&amp;&lt;&gt;&apos;&quot;")),
		wrap(fmt.Sprintf(attr, "&#0;")),
		wrap(fmt.Sprintf(attr, "&#x110000;")),
		wrap(fmt.Sprintf(attr, "&#xD800;")),
		wrap(fmt.Sprintf(attr, "&#xFFFE;")),
		wrap(fmt.Sprintf(attr, "&#65")),
		wrap(fmt.Sprintf(attr, "&#;")),
		wrap(fmt.Sprintf(attr, "&#X41;")),
		wrap(fmt.Sprintf(attr, "&#99999999999999999999999;")),
		wrap(fmt.Sprintf(attr, "&foo;")),
		wrap(fmt.Sprintf(attr, "&;")),
		wrap(fmt.Sprintf(attr, "a & b")),
		wrap(`text &#x1F600; &lt;`),
		// Namespaces: default, alternative prefix, unbound, rebound.
		`<xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1"><Model xmlns="http://schema.omg.org/spec/UML/2.1" name="D"></Model></xmi:XMI>`,
		`<XMI><u:Model xmlns:u="http://schema.omg.org/spec/UML/2.1" name="P"><packagedElement x:type="uml:Package" xmlns:x="http://schema.omg.org/spec/XMI/2.1" name="L"/></u:Model></XMI>`,
		`<xmi:XMI><uml:Model name="U"></uml:Model></xmi:XMI>`,
		`<xmi:XMI xmlns:uml="http://schema.omg.org/spec/UML/2.1">` + model + `<packagedElement type="uml:Class" xmi:type="uml:Package" name="L"/></uml:Model></xmi:XMI>`,
		`<xmi:XMI xmlns:uml="http://schema.omg.org/spec/UML/2.1" xmlns:xmi="urn:other">` + model + `<packagedElement xmi:type="uml:Class" type="uml:Package" name="L"/></uml:Model></xmi:XMI>`,
		`<xmi:XMI xmlns:uml="http://schema.omg.org/spec/UML/2.1" xmlns:o="xmi">` + model + `<packagedElement type="uml:Class" o:type="uml:Package" name="L"/></uml:Model></xmi:XMI>`,
		`<xmi:XMI xmlns:uml="urn:other"><uml:Model name="R" xmlns:uml="http://schema.omg.org/spec/UML/2.1"/></xmi:XMI>`,
		`<x:XMI xmlns:x=""><uml:Model name="E" xmlns="" xmlns:uml="http://schema.omg.org/spec/UML/2.1"/></x:XMI>`,
		`<xml:Model/><xmlns:Model/><a:b:c/>`,
		// Line endings.
		strings.ReplaceAll(wrap("\n"+fmt.Sprintf(attr, "A")+"\n"), ">", ">\r\n"),
		wrap("\r" + fmt.Sprintf(attr, "line\rbreak\r\nhere") + "\r"),
		wrap("<taggedValue\ttag=\"t\"\r\nvalue = 'v' />"),
		"\xef\xbb\xbf" + full,
		// Names, encodings and control characters.
		wrap(`<_a/><a-b.c_d9/><Z/><:a/><a: x:="1"/>`),
		wrap(`<-a/>`),
		wrap(`<.a/>`),
		wrap(`<0a/>`),
		wrap(`<ünïcode/><名前 属性="値"/>`),
		wrap(`<a·b/><·a/>`),
		wrap(fmt.Sprintf(attr, "Näme")),
		`<é:Model xmlns:é="http://schema.omg.org/spec/UML/2.1" name="N"/>`,
		wrap("\xff"),
		wrap(fmt.Sprintf(attr, "\xc3")),
		wrap("<a\xff/>"),
		wrap("\x01"),
		wrap(fmt.Sprintf(attr, "\x1f")),
		wrap("\t\x7f\u0085�"),
		// Element structure.
		wrap(`<taggedValue tag="t" value="v" />`),
		wrap(`<a></b>`),
		wrap(`<a:b></c:b>`),
		wrap(`</a>`),
		wrap(`<a b="1"c="2"/>`),
		wrap(`<a b/>`),
		wrap(`<a b=1/>`),
		wrap(`<a / >`),
		wrap(`<a b="<"/>`),
		wrap(`<a b="x" b="y"/>`),
		`<uml:Model xmlns:uml="http://schema.omg.org/spec/UML/2.1" name="A"/><uml:Model name="B"/>`,
		// Directives: only DOCTYPE and ENTITY are rejected.
		wrap(`<!ELEMENT foo ANY>`),
		wrap(`<!foo <!-- c --> "q>" 'r<' <x>>`),
		wrap(`<!x<!-y>>`),
		`<!  doctype x>` + full,
		`<!ENTITY e "x">` + full,
		`<!DOCTYPE foo [<!ENTITY bomb "x">]><xmi:XMI xmlns:xmi="http://schema.omg.org/spec/XMI/2.1">&bomb;</xmi:XMI>`,
		`<?xml version="1.0"?><!DOCTYPE lolz [<!ENTITY lol "lol"><!ENTITY lol2 "&lol;&lol;">]><lolz>&lol2;</lolz>`,
		`<!DOCTYPE x [`,
		// Model-level defects the lenient importer diagnoses.
		wrap(`<ownedAttribute xmi:id="c" name="Dup" lower="x" upper="1"/><taggedValue value="v"/><other/>`),
		strings.Replace(wrap(""), `target="c"`, `target=""`, 1),
		strings.Replace(wrap(""), `target="c"`, `target="c" aggregation="bogus"`, 1),
		strings.Replace(wrap(""), `target="c"`, `target="c" lower="1" upper="0..1"`, 1),
		wrap(`<taggedValue tag="t" value="it's"/><taggedValue tag='u' value='say "hi"'/>`),
		// Limit edges: nesting past the default depth, and each tight
		// limit reached and crossed. Documents of exactly the tight
		// MaxInputBytes are accepted when the model ends inside them.
		strings.Repeat("<a>", 200) + strings.Repeat("</a>", 200),
		wrap(tv + `<ownedAttribute xmi:id="x" name="A">` + tv + `</ownedAttribute>`),
		wrap(`<ownedAttribute xmi:id="x" name="A"><taggedValue tag="t" value="v"><x/></taggedValue></ownedAttribute>`),
		wrap(strings.Repeat(tv, 35)),
		wrap(strings.Repeat(tv, 36)),
		wrap(`<taggedValue tag="t" value="v" a="1" b="2" c="3" d="4"/>`),
		wrap(`<taggedValue tag="t" value="v" a="1" b="2" c="3" d="4" e="5"/>`),
		wrap(`<taggedValue tag="t" value="` + strings.Repeat("v", 48) + `"/>`),
		wrap(`<taggedValue tag="t" value="` + strings.Repeat("v", 49) + `"/>`),
		wrap(`<taggedValue tag="t" value="` + strings.Repeat("&amp;", 48) + `"/>`),
		wrap(`<taggedValue tag="t" ` + strings.Repeat("n", 48) + `="v"/>`),
		wrap(`<` + strings.Repeat("n", 48) + `/><` + strings.Repeat("n", 49) + `/>`),
		wrap(strings.Repeat("t", 48)),
		wrap(strings.Repeat("t", 49)),
		wrap(strings.Repeat("\r\n", 48) + "<!---->" + strings.Repeat("&lt;", 49)),
		wrap(`<![CDATA[` + strings.Repeat("c", 48) + `]]>`),
		wrap(`<![CDATA[` + strings.Repeat("c", 49) + `]]>`),
		padTo(int(tightLimits.MaxInputBytes), `<xmi:XMI><uml:Model xmlns:uml="http://schema.omg.org/spec/UML/2.1" name="Exact">`, `</uml:Model></xmi:XMI>`),
		padTo(int(tightLimits.MaxInputBytes), `<xmi:XMI><uml:Model xmlns:uml="http://schema.omg.org/spec/UML/2.1" name="Exact">`, `</uml:Model>`),
		padTo(int(tightLimits.MaxInputBytes), `<xmi:XMI><uml:Model xmlns:uml="http://schema.omg.org/spec/UML/2.1" name="Exact">`, `</uml:Mod`),
		padTo(int(tightLimits.MaxInputBytes)+1, `<xmi:XMI><uml:Model xmlns:uml="http://schema.omg.org/spec/UML/2.1" name="Over">`, `</uml:Model>`),
	}
	return seeds
}

// exportOf renders a core model through the profile as XMI.
func exportOf(t testing.TB, m *core.Model) []byte {
	t.Helper()
	return []byte(ExportString(profile.Render(m)))
}

// TestReadersAgree runs the scanner and the oracle over every fixture
// and golden export, synthetic exports of 10, 100 and 300 ABIEs, the
// registry's subject chains, every differential seed and every prefix
// of one full seed, in strict and lenient mode under default and tight
// limits.
func TestReadersAgree(t *testing.T) {
	docs := map[string][]byte{
		"HoardingPermit": exportOf(t, fixture.MustBuildHoardingPermit().Model),
		"Figure1":        exportOf(t, fixture.MustBuildFigure1().Model),
	}
	po, err := fixture.BuildPurchaseOrder()
	if err != nil {
		t.Fatal(err)
	}
	docs["PurchaseOrder"] = exportOf(t, po.Model)
	err = filepath.WalkDir("../../testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".xmi" {
			return err
		}
		data, err := os.ReadFile(path)
		docs[path] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fixture.SyntheticSpec{
		{ABIEs: 10, BBIEsPerABIE: 10, Chain: true},
		{ABIEs: 100, BBIEsPerABIE: 10, Chain: true},
		{ABIEs: 300, BBIEsPerABIE: 10, Chain: true},
		{ABIEs: 12, BBIEsPerABIE: 8, Chain: true},
		{ABIEs: 12, BBIEsPerABIE: 9, Chain: true},
	} {
		m, _, err := fixture.BuildSynthetic(spec)
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("synthetic %+v", spec)] = exportOf(t, m)
	}
	for i, seed := range differentialSeeds() {
		docs[fmt.Sprintf("seed %d", i)] = []byte(seed)
	}
	// An attribute value past the default MaxTokenLen; the seeds cover
	// the same edge under the tight limits at a fraction of the size.
	docs["long value"] = []byte(`<a b="` + strings.Repeat("x", 1<<20+1) + `"/>`)
	full := differentialSeeds()[0]
	for n := 0; n < len(full); n++ {
		docs[fmt.Sprintf("seed 0 prefix %d", n)] = []byte(full[:n])
	}
	for name, doc := range docs {
		for _, opts := range differentialOptions() {
			compareReaders(t, name, doc, opts)
		}
	}
}

// TestReadersAgreeAtInputLimit cuts the HoardingPermit export with
// MaxInputBytes around the end of its model element: a limit at or past
// the model's close tag admits the document, an earlier one fails it
// with MaxInputBytes, in both readers.
func TestReadersAgreeAtInputLimit(t *testing.T) {
	doc := exportOf(t, fixture.MustBuildHoardingPermit().Model)
	end := bytes.LastIndex(doc, []byte("</uml:Model>")) + len("</uml:Model>")
	for _, max := range []int{1, 100, end - 1, end, end + 1, len(doc) - 1, len(doc), len(doc) + 1} {
		lim := limits.Default()
		lim.MaxInputBytes = int64(max)
		compareReaders(t, fmt.Sprintf("MaxInputBytes %d", max), doc, ImportOptions{Limits: lim})
		_, _, err := ImportBytes(doc, ImportOptions{Limits: lim})
		if got, want := outcome(err), "ok"; max < end && got != "limit MaxInputBytes" || max >= end && got != want {
			t.Errorf("MaxInputBytes %d (model ends at %d): %v", max, end, err)
		}
	}
}

// TestEarlyTokenCut pins the scanner's one divergence from the oracle:
// a character-data run longer than MaxTokenLen fails with MaxTokenLen
// where it crosses the limit, so a defect later in the same run is
// never reached. The oracle buffers the whole run first and reports
// the defect instead.
func TestEarlyTokenCut(t *testing.T) {
	lim := limits.Default()
	lim.MaxTokenLen = 64
	run := strings.Repeat("x", 100)
	for _, tail := range []string{"&bogus;", "\x01", "]]>", "&#12"} {
		doc := []byte(wrap(run + tail))
		_, _, got := ImportBytes(doc, ImportOptions{Limits: lim})
		_, _, want := oracleImportWithOptions(bytes.NewReader(doc), ImportOptions{Limits: lim})
		var v *limits.Violation
		if !errors.As(got, &v) || v.Limit != "MaxTokenLen" {
			t.Errorf("tail %q: scanner err = %v, want MaxTokenLen", tail, got)
		}
		if outcome(want) == outcome(got) || !earlyCut(got, want) {
			t.Errorf("tail %q: oracle err = %v, want a later defect than the scanner's %v", tail, want, got)
		}
	}
	// A CDATA section that never ends, inside an element lenient mode
	// skips: the oracle reads to the end of input and reports an
	// unexpected EOF without a position.
	open := strings.Replace(wrap(""), "uml:Class", "uml:Unknown", 1)
	doc := []byte(open[:strings.Index(open, "</packagedElement>")] + "<![CDATA[" + run)
	lenient := ImportOptions{Limits: lim, Lenient: true}
	_, _, got := ImportBytes(doc, lenient)
	_, _, want := oracleImportWithOptions(bytes.NewReader(doc), lenient)
	if _, _, ok := errPos(want); ok || outcome(want) != "eof" || !earlyCut(got, want) {
		t.Errorf("unterminated CDATA: scanner err = %v, oracle err = %v, want an early cut before the oracle's unpositioned EOF", got, want)
	}
	// Without a defect in the run both readers report MaxTokenLen.
	compareReaders(t, "long run", []byte(wrap(run)), ImportOptions{Limits: lim})
}
