package jsonschema

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/gen"
)

func generateEUOrder(t *testing.T, opts gen.Options) *gen.Output {
	t.Helper()
	f, err := fixture.BuildPurchaseOrder()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gen.NewPlan(f.EUDocLib, "EU_Order", opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.ExecuteBackend(Backend{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateValidJSON(t *testing.T) {
	out := generateEUOrder(t, gen.Options{})
	if out.Target != "jsonschema" || out.ContentType != ContentType {
		t.Errorf("target/content-type = %q/%q", out.Target, out.ContentType)
	}
	if len(out.Files) == 0 {
		t.Fatal("no files generated")
	}
	for _, file := range out.Files {
		if !strings.HasSuffix(file.Name, ".json") {
			t.Errorf("file %q does not use the .json extension", file.Name)
		}
		var doc map[string]any
		if err := json.Unmarshal(file.Data, &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", file.Name, err)
		}
		if doc["$schema"] != Draft {
			t.Errorf("%s: $schema = %v, want %s", file.Name, doc["$schema"], Draft)
		}
		if _, ok := doc["$defs"].(map[string]any); !ok {
			t.Errorf("%s: missing $defs object", file.Name)
		}
	}
}

func TestDocumentRootRef(t *testing.T) {
	out := generateEUOrder(t, gen.Options{})
	var doc map[string]any
	if err := json.Unmarshal(out.Files[0].Data, &doc); err != nil {
		t.Fatal(err)
	}
	ref, _ := doc["$ref"].(string)
	if !strings.HasPrefix(ref, "#/$defs/") {
		t.Fatalf("primary document $ref = %q, want a local root pointer", ref)
	}
	defs := doc["$defs"].(map[string]any)
	if _, ok := defs[strings.TrimPrefix(ref, "#/$defs/")]; !ok {
		t.Errorf("root $ref %q does not resolve within $defs", ref)
	}
}

// TestCrossFileRefsResolve checks every external $ref points at a file
// in the same output set and at a definition that file actually holds.
func TestCrossFileRefsResolve(t *testing.T) {
	out := generateEUOrder(t, gen.Options{})
	defsByFile := map[string]map[string]any{}
	for _, file := range out.Files {
		var doc struct {
			Defs map[string]any `json:"$defs"`
		}
		if err := json.Unmarshal(file.Data, &doc); err != nil {
			t.Fatal(err)
		}
		defsByFile[file.Name] = doc.Defs
	}
	for _, file := range out.Files {
		for _, ref := range collectRefs(t, file.Data) {
			doc, frag, ok := strings.Cut(ref, "#/$defs/")
			if !ok {
				t.Errorf("%s: $ref %q is not a $defs pointer", file.Name, ref)
				continue
			}
			target := file.Name
			if doc != "" {
				target = doc
			}
			defs, ok := defsByFile[target]
			if !ok {
				t.Errorf("%s: $ref %q points outside the generated set", file.Name, ref)
				continue
			}
			if _, ok := defs[frag]; !ok {
				t.Errorf("%s: $ref %q names a definition %s does not declare", file.Name, ref, target)
			}
		}
	}
}

func collectRefs(t *testing.T, data []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var refs []string
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, vv := range x {
				if k == "$ref" {
					if s, ok := vv.(string); ok {
						refs = append(refs, s)
					}
					continue
				}
				walk(vv)
			}
		case []any:
			for _, vv := range x {
				walk(vv)
			}
		}
	}
	walk(doc)
	return refs
}

func TestScalarMapping(t *testing.T) {
	cases := map[string]struct{ typ, format string }{
		"xsd:string":   {"string", ""},
		"xsd:decimal":  {"number", ""},
		"xsd:date":     {"string", "date"},
		"xsd:dateTime": {"string", "date-time"},
		"xsd:boolean":  {"boolean", ""},
	}
	for in, want := range cases {
		n := scalarNode(in)
		if n.Type != want.typ {
			t.Errorf("scalarNode(%q).Type = %q, want %q", in, n.Type, want.typ)
		}
		if n.Format != want.format {
			t.Errorf("scalarNode(%q).Format = %q, want %q", in, n.Format, want.format)
		}
	}
	if n := scalarNode("xsd:base64Binary"); n.Type != "string" || n.ContentEncoding != "base64" {
		t.Errorf("scalarNode(xsd:base64Binary) = %+v, want base64-encoded string", n)
	}
	// Non-xsd names pass through as target-native types.
	if n := scalarNode("integer"); n.Type != "integer" {
		t.Errorf("passthrough scalarNode(\"integer\").Type = %q", n.Type)
	}
}
