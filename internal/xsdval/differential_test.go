package xsdval

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/xmlscan/xmloracle"
)

// CompareReaders and InstanceSeeds export the differential check and its
// seeds to the tests over generated instances, which live outside the
// package.
var (
	CompareReaders = compareReaders
	InstanceSeeds  = instanceSeeds
)

// compareReaders validates doc with Validate's scanner and with the
// encoding/xml oracle and fails unless both return identical results or
// both reject the document alike. The oracle reads without limits and
// accepts DTDs, so where the scanner rejects a document under a limit or
// for a DTD the oracle's verdict does not count.
func compareReaders(t testing.TB, ss *SchemaSet, name string, doc []byte) {
	t.Helper()
	got, gerr := ss.Validate(bytes.NewReader(doc))
	want, werr := ss.oracleValidate(bytes.NewReader(doc))
	switch g, w := xmloracle.Outcome(gerr), xmloracle.Outcome(werr); {
	case g == "dtd" || strings.HasPrefix(g, "limit "):
	case g != w:
		t.Errorf("%s: scanner %s (%v), oracle %s (%v)", name, g, gerr, w, werr)
	case gerr == nil && !reflect.DeepEqual(got, want):
		t.Errorf("%s: results differ:\nscanner %v\noracle  %v", name, got.Errors, want.Errors)
	}
}

// instanceSeeds are variants of a conforming HoardingPermit message
// covering the XML the scanner reads around the validated content and
// the ways input can leave it. FuzzValidateInstance starts from them
// and TestReadersAgreeOnSeeds runs every one.
func instanceSeeds() []string {
	edit := func(old, new string) string { return strings.Replace(validPermit, old, new, 1) }
	body := validPermit[strings.Index(validPermit, "<doc:HoardingPermit"):]
	return []string{
		validPermit,
		body,
		"",
		"   ",
		`<broken`,
		// Character data: references, CDATA, comments, processing
		// instructions and line ends inside validated values.
		edit(">2006-11-29<", ">&#50;006-11-29<"),
		edit(">2006-11-29<", "><![CDATA[2006-11-29]]><"),
		edit(">2006-11-29<", "><!-- c -->2006<?pi x?>-11-29<"),
		edit(">AUS<", ">AU<!---->S<"),
		edit(">AUS<", "> AUS\r\n<"),
		edit(">AUS<", ">A&amp;S<"),
		edit(">HOARD<", ">HO<![CDATA[AR]]>D<"),
		edit("<doc:IncludedRegistration>", "<doc:IncludedRegistration><![CDATA[ ]]>&#32;"),
		edit("<doc:IncludedRegistration>", "<doc:IncludedRegistration>stray &lt;text&gt;"),
		strings.ReplaceAll(validPermit, "\n", "\r\n"),
		strings.ReplaceAll(validPermit, "\n", "\r"),
		"\xef\xbb\xbf" + validPermit,
		// Attributes and namespaces.
		edit(`CodeListName="iso3166"`, `CodeListName="iso&#51;166" xml:lang="en"`),
		edit(`CodeListName="iso3166"`, `CodeListName="a" CodeListName="b"`),
		edit(`CodeListName="iso3166"`, `x:CodeListName="iso3166"`),
		edit(`CodeListName="iso3166"`, `CodeListName='it''s'`),
		edit(`CodeListName="iso3166"`, `xmlns:ca="urn:other" CodeListName="iso3166"`),
		edit(`<ca:CountryName CodeListName="iso3166">`, `<CountryName xmlns="urn:au:gov:vic:easybiz:data:draft:CommonAggregates" CodeListName="iso3166">`),
		edit(`<doc:ClosureReason>`, `<doc:ClosureReason xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:nil="true" xmlns="urn:d">`),
		edit("<doc:HoardingPermit", "<doc:HoardingPermit xmlns:doc=\"urn:wrong\""),
		strings.ReplaceAll(body, "doc:", "d:"),
		`<x xmlns="urn:unknown"/>`,
		`<HoardingPermit xmlns="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"/>`,
		// Document structure.
		validPermit + `<doc:HoardingPermit xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"/>`,
		validPermit + "\n<!-- trailing -->\n",
		validPermit + "trailing text",
		validPermit + "<",
		edit("</doc:IncludedRegistration>", "</doc:IncludedRegistratio>"),
		edit("</doc:HoardingPermit>", ""),
		edit("<ll:Type>local</ll:Type>", "<ll:Type>local</ll:Type><ll:Type>again</ll:Type>"),
		edit("<ll:Type>local</ll:Type>", ""),
		edit(`<doc:IsClosedFootpath>yes</doc:IsClosedFootpath>`, `<doc:IsClosedFootpath/>`),
		// Declarations and directives: DTDs are rejected, the rest read.
		`<?xml version="1.0" encoding="ISO-8859-1"?>` + body,
		`<?xml version="1.1"?>` + body,
		`<!DOCTYPE x [<!ENTITY a "b">]>` + body,
		`<!DOCTYPE x [<!ENTITY a "b">]>` + edit(">AUS<", ">&a;<"),
		`<!ELEMENT x ANY>` + body,
		// Nesting past the default depth inside a value.
		edit(">Site plan<", ">"+strings.Repeat("<x>", 120)+strings.Repeat("</x>", 120)+"<"),
	}
}

// TestReadersAgreeOnSeeds runs the scanner and the oracle over every
// seed, a text run past the default token length, and every prefix of
// the conforming message.
func TestReadersAgreeOnSeeds(t *testing.T) {
	ss := permitSet(t)
	for i, seed := range instanceSeeds() {
		compareReaders(t, ss, fmt.Sprintf("seed %d", i), []byte(seed))
	}
	long := strings.Replace(validPermit, ">Site plan<", ">"+strings.Repeat("s", 1<<20+1)+"<", 1)
	compareReaders(t, ss, "long text", []byte(long))
	for n := 0; n < len(validPermit); n++ {
		compareReaders(t, ss, fmt.Sprintf("prefix %d", n), []byte(validPermit[:n]))
	}
}
