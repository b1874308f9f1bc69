package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// refXMLName and refWords are the rune-by-rune derivations XMLName and
// writeWords shortcut for ASCII input.
func refXMLName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9', r == '-':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		case r == ' ', r == '.':
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func refWords(name string) string {
	var b strings.Builder
	prevLower := false
	for _, r := range name {
		switch {
		case r == '_':
			b.WriteByte(' ')
			prevLower = false
			continue
		case unicode.IsUpper(r) && prevLower:
			b.WriteByte(' ')
		}
		b.WriteRune(r)
		prevLower = unicode.IsLower(r) || unicode.IsDigit(r)
	}
	return b.String()
}

// TestNamingFastPaths checks XMLName and writeWords against the
// rune-by-rune derivations on random names mixing ASCII classes,
// non-ASCII letters and digits, and bytes that are not UTF-8.
func TestNamingFastPaths(t *testing.T) {
	fragments := []string{"A", "z", "Q", "b", "0", "7", "_", "-", ".", " ", "&",
		"É", "é", "ß", "Ö", "٣", "\xff", "\xe2\x82", "VAT", "Number"}
	gen := func(args []reflect.Value, r *rand.Rand) {
		var b strings.Builder
		for n := r.Intn(8); n > 0; n-- {
			b.WriteString(fragments[r.Intn(len(fragments))])
		}
		args[0] = reflect.ValueOf(b.String())
	}
	f := func(name string) bool {
		var words strings.Builder
		writeWords(&words, name)
		return XMLName(name) == refXMLName(name) && words.String() == refWords(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Values: gen}); err != nil {
		t.Error(err)
	}
}

func TestXMLName(t *testing.T) {
	cases := map[string]string{
		"HoardingPermit":        "HoardingPermit",
		"Person_Identification": "Person_Identification",
		"EB005-HoardingPermit":  "EB005-HoardingPermit",
		"Date of Birth":         "DateofBirth",
		"Code. Type":            "CodeType",
		"9Lives":                "_9Lives",
		"-lead":                 "_-lead",
		"with:colon":            "with_colon",
		"":                      "_",
		"...":                   "_",
	}
	for in, want := range cases {
		if got := XMLName(in); got != want {
			t.Errorf("XMLName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTypeName(t *testing.T) {
	if got := TypeName("HoardingPermit"); got != "HoardingPermitType" {
		t.Errorf("TypeName = %q", got)
	}
	if got := TypeName("Indicator_Code"); got != "Indicator_CodeType" {
		t.Errorf("TypeName = %q", got)
	}
}

func TestASBIEElementNameParts(t *testing.T) {
	cases := []struct{ role, target, want string }{
		{"Included", "Attachment", "IncludedAttachment"},
		{"Current", "Application", "CurrentApplication"},
		{"Included", "Registration", "IncludedRegistration"},
		{"Billing", "Person_Identification", "BillingPerson_Identification"},
		{"Assigned", "Address", "AssignedAddress"},
	}
	for _, c := range cases {
		if got := ASBIEElementName(c.role, c.target); got != c.want {
			t.Errorf("ASBIEElementName(%q,%q) = %q, want %q", c.role, c.target, got, c.want)
		}
	}
}

func TestAttributeUse(t *testing.T) {
	if AttributeUse(Cardinality{Lower: 1, Upper: 1}) != "required" {
		t.Error("1 should be required")
	}
	if AttributeUse(Cardinality{Lower: 0, Upper: 1}) != "optional" {
		t.Error("0..1 should be optional")
	}
}
