package protogen

import (
	"strconv"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
)

func generateEUOrder(t *testing.T) *gen.Output {
	t.Helper()
	f, err := fixture.BuildPurchaseOrder()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gen.NewPlan(f.EUDocLib, "EU_Order", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.ExecuteBackend(Backend{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateProto3(t *testing.T) {
	out := generateEUOrder(t)
	if out.Target != "proto" || out.ContentType != ContentType {
		t.Errorf("target/content-type = %q/%q", out.Target, out.ContentType)
	}
	declaredBy := map[string]string{}
	for _, file := range out.Files {
		text := string(file.Data)
		if !strings.HasSuffix(file.Name, ".proto") {
			t.Errorf("file %q does not use the .proto extension", file.Name)
		}
		if !strings.HasPrefix(text, `syntax = "proto3";`) {
			t.Errorf("%s: missing proto3 syntax declaration", file.Name)
		}
		if !strings.Contains(text, "\npackage ") {
			t.Errorf("%s: missing package declaration", file.Name)
		}
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSpace(line)
			for _, kw := range []string{"message ", "enum "} {
				if name, ok := strings.CutPrefix(line, kw); ok {
					name = strings.TrimSuffix(name, " {")
					if prev, dup := declaredBy[name]; dup {
						t.Errorf("type %s declared in both %s and %s", name, prev, file.Name)
					}
					declaredBy[name] = file.Name
				}
			}
		}
	}
	if len(declaredBy) == 0 {
		t.Fatal("no messages or enums generated")
	}
	// Every import must name a file in the generated set.
	inSet := map[string]bool{}
	for _, f := range out.Files {
		inSet[f.Name] = true
	}
	for _, file := range out.Files {
		for _, line := range strings.Split(string(file.Data), "\n") {
			if imp, ok := strings.CutPrefix(strings.TrimSpace(line), `import "`); ok {
				imp = strings.TrimSuffix(imp, `";`)
				if !inSet[imp] {
					t.Errorf("%s imports %q, which is not in the generated set", file.Name, imp)
				}
			}
		}
	}
}

// TestFieldNumbersStable pins deterministic field numbering: field
// numbers follow declaration order, starting at 1, without gaps.
func TestFieldNumbersStable(t *testing.T) {
	out := generateEUOrder(t)
	primary := string(out.Files[0].Data)
	start := strings.Index(primary, "message EU_OrderType {")
	if start < 0 {
		t.Fatalf("EU_OrderType message missing:\n%s", primary)
	}
	body := primary[start:]
	body = body[:strings.Index(body, "}")]
	want := 1
	for _, line := range strings.Split(body, "\n") {
		eq := strings.Index(line, "= ")
		if eq < 0 {
			continue
		}
		num := strings.TrimSuffix(strings.TrimSpace(line[eq+2:]), ";")
		if num != strconv.Itoa(want) {
			t.Fatalf("field number %s, want %d in line %q", num, want, line)
		}
		want++
	}
	if want == 1 {
		t.Fatal("no fields found in EU_OrderType")
	}
}

func TestPackageName(t *testing.T) {
	cases := map[string]string{
		"urn:trade:eu:order":         "urn.trade.eu.order",
		"http://example.com/ns#frag": "http.example.com.ns.frag",
		"urn:0abc:x":                 "urn.p0abc.x",
	}
	for in, want := range cases {
		if got := PackageName(in); got != want {
			t.Errorf("PackageName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFieldName(t *testing.T) {
	cases := map[string]string{
		"IssueDate":     "issue_date",
		"VATNumber":     "vat_number",
		"BuyerEU_Party": "buyer_eu_party",
		"HazardCode":    "hazard_code",
	}
	for in, want := range cases {
		var b strings.Builder
		writeFieldName(&b, in, false)
		if got := b.String(); got != want {
			t.Errorf("writeFieldName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEnumShape(t *testing.T) {
	out := generateEUOrder(t)
	var enumFile string
	for _, f := range out.Files {
		if strings.Contains(string(f.Data), "enum EUCurrency_CodeType {") {
			enumFile = string(f.Data)
		}
	}
	if enumFile == "" {
		t.Fatal("EUCurrency_Code enum not generated")
	}
	if !strings.Contains(enumFile, "_UNSPECIFIED = 0;") {
		t.Error("enum lacks the proto3-required zero value")
	}
	for _, lit := range []string{"EUR", "SEK", "DKK"} {
		if !strings.Contains(enumFile, lit) {
			t.Errorf("enum literal %s missing", lit)
		}
	}
}

func TestScalarMapping(t *testing.T) {
	cases := map[string]string{
		"xsd:string":  "string",
		"xsd:decimal": "string", // precision-preserving, documented caveat
		"xsd:double":  "double",
		"xsd:boolean": "bool",
		"xsd:integer": "int64",
		"int32":       "int32", // profile override passthrough
	}
	for in, want := range cases {
		if got := scalar(in); got != want {
			t.Errorf("scalar(%q) = %q, want %q", in, got, want)
		}
	}
}
