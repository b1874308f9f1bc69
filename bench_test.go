package ccts_test

// Benchmark harness per DESIGN.md's experiment index. The paper's
// evaluation is qualitative (one running example), so each figure gets a
// regeneration benchmark, and the scaling benchmarks quantify the claim
// that motivates the tool: "Due to the huge amount of core components,
// business information entities etc. in a large model, a manual
// transformation to a schema is unmanageable."

import (
	"bytes"
	"io"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/ocl"
	"github.com/go-ccts/ccts/internal/profile"
)

// BenchmarkFigure1Derivation measures derivation-by-restriction of the
// Figure 1 BIEs from prebuilt core components.
func BenchmarkFigure1Derivation(b *testing.B) {
	f := fixture.MustBuildFigure1()
	biz := f.Model.BusinessLibraries[0]
	lib := biz.AddLibrary(ccts.KindBIELibrary, "Bench", "urn:bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib.ABIEs = lib.ABIEs[:0] // fresh library each iteration
		usAddress, err := ccts.DeriveABIE(lib, f.Address, ccts.Restriction{
			Qualifier: "US",
			BBIEs:     []ccts.BBIEPick{{BCC: "PostalCode"}, {BCC: "Street"}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ccts.DeriveABIE(lib, f.Person, ccts.Restriction{
			Qualifier: "US",
			BBIEs:     []ccts.BBIEPick{{BCC: "DateofBirth"}, {BCC: "FirstName"}},
			ASBIEs: []ccts.ASBIEPick{
				{Role: "Private", Target: usAddress, Rename: "US_Private"},
				{Role: "Work", Target: usAddress, Rename: "US_Work"},
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Build measures construction of the complete
// EB005-HoardingPermit model (Figure 4).
func BenchmarkFigure4Build(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fixture.BuildHoardingPermit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Validate measures the full validation engine over the
// Figure 4 model (semantic rules + OCL constraints).
func BenchmarkFigure4Validate(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ccts.ValidateModel(f.Model); r.HasErrors() {
			b.Fatal("unexpected validation errors")
		}
	}
}

// BenchmarkFigure6Generate measures regeneration of the HoardingPermit
// DOCLibrary schema set (Figure 6).
func BenchmarkFigure6Generate(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6GenerateAnnotated adds the CCTS annotation blocks.
func BenchmarkFigure6GenerateAnnotated(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{Annotate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6GenerateCompositeStyle is the ablation counterpart of
// BenchmarkFigure6Generate using the paper's prose rule (compositions
// declared globally) instead of the example rule.
func BenchmarkFigure6GenerateCompositeStyle(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{
			Style: ccts.GlobalComposite,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7BIELibrary measures generation of the CommonAggregates
// BIELibrary schema with its global-element treatment (Figure 7).
func BenchmarkFigure7BIELibrary(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(f.Common, "", ccts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8CDTLibrary measures generation of the CDT library
// schema (Figure 8).
func BenchmarkFigure8CDTLibrary(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(f.Catalog.CDTLibrary, "", ccts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Serialize measures writing the generated schema set to
// text.
func BenchmarkFigure6Serialize(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		for _, file := range res.Order {
			n += len(res.Schemas[file].String())
		}
		if n == 0 {
			b.Fatal("no output")
		}
	}
}

// benchScaling generates a document schema over synthetic models of
// growing size (S1 in DESIGN.md).
func benchScaling(b *testing.B, abies int, chain bool) {
	m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{
		ABIEs: abies, BBIEsPerABIE: 10, Chain: chain,
	})
	if err != nil {
		b.Fatal(err)
	}
	docLib := m.FindLibrary("SynDoc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(docLib, root.Name, ccts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateScaling10(b *testing.B)   { benchScaling(b, 10, true) }
func BenchmarkGenerateScaling100(b *testing.B)  { benchScaling(b, 100, true) }
func BenchmarkGenerateScaling1000(b *testing.B) { benchScaling(b, 1000, true) }

// benchShape fixes the total BBIE count at 1000 while varying the
// aggregate shape — many narrow ABIEs vs. few wide ones — to show that
// generation cost tracks total members, not aggregate count.
func benchShape(b *testing.B, abies, bbiesPer int) {
	m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{
		ABIEs: abies, BBIEsPerABIE: bbiesPer, Chain: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	docLib := m.FindLibrary("SynDoc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateDocument(docLib, root.Name, ccts.GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateShapeDeep(b *testing.B) { benchShape(b, 100, 10) } // 100 x 10
func BenchmarkGenerateShapeWide(b *testing.B) { benchShape(b, 10, 100) } // 10 x 100

// benchValidateScaling runs the validation engine over synthetic models
// of growing size (S2).
func benchValidateScaling(b *testing.B, abies int) {
	m, _, err := fixture.BuildSynthetic(fixture.SyntheticSpec{
		ABIEs: abies, BBIEsPerABIE: 10, Chain: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ccts.ValidateModel(m); r.HasErrors() {
			b.Fatal("unexpected errors")
		}
	}
}

func BenchmarkValidateScaling10(b *testing.B)  { benchValidateScaling(b, 10) }
func BenchmarkValidateScaling100(b *testing.B) { benchValidateScaling(b, 100) }

// BenchmarkConstraints evaluates the profile's whole built-in constraint
// table over the rendered HoardingPermit model (S2).
func BenchmarkConstraints(b *testing.B) {
	benchConstraints(b, fixture.MustBuildHoardingPermit().Model)
}

// BenchmarkConstraints300 evaluates the built-in table over a rendered
// chained 300-ABIE synthetic model (10 BBIEs each), built once.
func BenchmarkConstraints300(b *testing.B) {
	m, _, err := fixture.BuildSynthetic(fixture.SyntheticSpec{ABIEs: 300, BBIEsPerABIE: 10, Chain: true})
	if err != nil {
		b.Fatal(err)
	}
	benchConstraints(b, m)
}

func benchConstraints(b *testing.B, m *ccts.Model) {
	um := ccts.ToUML(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := ccts.EvaluateConstraints(um); len(vs) != 0 {
			b.Fatalf("unexpected violations: %v", vs)
		}
	}
}

// BenchmarkOCLEval measures the OCL interpreter on one representative
// profile constraint over a rendered class (S2). The built-in table runs
// as compiled Go checks (BenchmarkConstraints); the interpreter is the
// path user rules from NewConstraint take.
func BenchmarkOCLEval(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	um := ccts.ToUML(f.Model)
	code := um.FindClass("Code")
	obj := profile.Adapt(um, code)
	expr := ocl.MustParse("self.attributes->select(a | a.stereotype = 'CON')->size() = 1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := expr.EvalBool(obj)
		if err != nil || !ok {
			b.Fatalf("eval = %v, %v", ok, err)
		}
	}
}

// BenchmarkXMIRoundTrip measures export + import of the Figure 4 model
// (S3).
func BenchmarkXMIRoundTrip(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ccts.ExportXMI(f.Model, &buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ccts.ImportXMI(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchXMIImport measures the hardened XMI import of one export, read
// through the io.Reader entry point under the default limits.
func benchXMIImport(b *testing.B, doc []byte) {
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.ImportUMLXMI(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMIImport isolates the import half on the HoardingPermit
// export.
func BenchmarkXMIImport(b *testing.B) {
	var buf bytes.Buffer
	if err := ccts.ExportXMI(fixture.MustBuildHoardingPermit().Model, &buf); err != nil {
		b.Fatal(err)
	}
	benchXMIImport(b, buf.Bytes())
}

// BenchmarkXMIImport300 is the import of a chained 300-ABIE synthetic
// export (10 BBIEs each), built once.
func BenchmarkXMIImport300(b *testing.B) {
	m, _, err := fixture.BuildSynthetic(fixture.SyntheticSpec{ABIEs: 300, BBIEsPerABIE: 10, Chain: true})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ccts.ExportXMI(m, &buf); err != nil {
		b.Fatal(err)
	}
	benchXMIImport(b, buf.Bytes())
}

// BenchmarkXMIExport isolates the export half.
func BenchmarkXMIExport(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	um := ccts.ToUML(f.Model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ccts.ExportUMLXMI(um, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceValidation measures message validation throughput
// against the generated schema set (S4).
func BenchmarkInstanceValidation(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	set, err := ccts.CompileSchemas(res)
	if err != nil {
		b.Fatal(err)
	}
	msg := `<doc:HoardingPermit
	    xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"
	    xmlns:ca="urn:au:gov:vic:easybiz:data:draft:CommonAggregates"
	    xmlns:ll="urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates">
	  <doc:ClosureReason>Scaffolding</doc:ClosureReason>
	  <doc:IncludedAttachment><ca:Description>plan</ca:Description></doc:IncludedAttachment>
	  <doc:CurrentApplication><ca:CreatedDate>2006-11-29</ca:CreatedDate></doc:CurrentApplication>
	  <doc:IncludedRegistration><ll:Type>local</ll:Type></doc:IncludedRegistration>
	</doc:HoardingPermit>`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vr, err := set.ValidateString(msg)
		if err != nil {
			b.Fatal(err)
		}
		if !vr.Valid() {
			b.Fatalf("message rejected: %v", vr.Errors)
		}
	}
	b.SetBytes(int64(len(msg)))
}

// BenchmarkParseSchema300 measures ccts.ParseSchema over the annotated
// XSD set of the chained 300-ABIE synthetic model, generated once: the
// read-back that LoadSchemaSet and ccvalidate run on shipped schemas.
func BenchmarkParseSchema300(b *testing.B) {
	m, root := build300(b)
	opts := ccts.GenerateOptions{Annotate: true, Index: ccts.ResolveModel(m)}
	out, err := ccts.GenerateTargetDocument(m.FindLibrary("SynDoc"), root.Name, "xsd", opts)
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	for _, f := range out.Files {
		size += len(f.Data)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range out.Files {
			if _, err := ccts.ParseSchema(bytes.NewReader(f.Data)); err != nil {
				b.Fatalf("%s: %v", f.Name, err)
			}
		}
	}
}

// BenchmarkRegistryRegisterAndSearch measures the harmonisation registry
// over the Figure 4 model.
func BenchmarkRegistryRegisterAndSearch(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ccts.NewRegistry()
		r.RegisterModel(f.Model)
		if hits := r.Search("Permit"); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// benchTarget measures generating the Figure 4 document for one target
// through GenerateTargetDocument, the path ccgen and ccserved run: plan
// and emit, with the model index resolved once outside the loop.
func benchTarget(b *testing.B, target string) {
	f := fixture.MustBuildHoardingPermit()
	opts := ccts.GenerateOptions{Index: ccts.ResolveModel(f.Model)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ccts.GenerateTargetDocument(f.DOCLib, "HoardingPermit", target, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Files[0].Data) == 0 {
			b.Fatalf("empty %s output", target)
		}
	}
}

// BenchmarkRelaxNGGenerate measures RELAX NG grammar generation (the
// paper's future extension) for the Figure 4 document.
func BenchmarkRelaxNGGenerate(b *testing.B) { benchTarget(b, "rng") }

// BenchmarkRDFSGenerate measures RDF Schema vocabulary generation; the
// vocabulary covers the whole Figure 4 model.
func BenchmarkRDFSGenerate(b *testing.B) { benchTarget(b, "rdfs") }

// build300 builds the chained 300-ABIE synthetic model (10 BBIEs each)
// the per-target ledger benches share.
func build300(b *testing.B) (*ccts.Model, *ccts.ABIE) {
	m, root, err := fixture.BuildSynthetic(fixture.SyntheticSpec{ABIEs: 300, BBIEsPerABIE: 10, Chain: true})
	if err != nil {
		b.Fatal(err)
	}
	return m, root
}

// BenchmarkEmit300 measures plan and emit of the 300-ABIE document for
// each target through GenerateTargetDocument, with the model resolved
// once outside the loop: the gen.<target> stage of a large compile.
func BenchmarkEmit300(b *testing.B) {
	m, root := build300(b)
	docLib := m.FindLibrary("SynDoc")
	opts := ccts.GenerateOptions{Index: ccts.ResolveModel(m)}
	for _, target := range ccts.Targets() {
		b.Run(target, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := ccts.GenerateTargetDocument(docLib, root.Name, target, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(out.Files[0].Data) == 0 {
					b.Fatalf("empty %s output", target)
				}
			}
		})
	}
}

// BenchmarkResolve300 measures building the model index of the same
// 300-ABIE model: the core.resolve stage.
func BenchmarkResolve300(b *testing.B) {
	m, _ := build300(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := ccts.ResolveModel(m); ix.FindLibrary("SynDoc") == nil {
			b.Fatal("SynDoc not indexed")
		}
	}
}

// BenchmarkSampleGeneration measures full-mode sample message
// generation from the compiled Figure 6 schema set.
func BenchmarkSampleGeneration(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	set, err := ccts.CompileSchemas(res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccts.GenerateSample(set, f.DOCLib.BaseURN, "HoardingPermit", ccts.SampleFull); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoBindings measures Go message-binding generation for the
// Figure 4 document.
func BenchmarkGoBindings(b *testing.B) { benchTarget(b, "go") }

// BenchmarkContextResolution measures most-specific-match context
// resolution over a model with several candidate BIEs.
func BenchmarkContextResolution(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	acc := f.Model.FindACC("Registration")
	f.RegistrationBIE.SetContext(ccts.NewContext().With(ccts.CtxGeopolitical, "AU"))
	situation := ccts.NewContext().
		With(ccts.CtxGeopolitical, "AU").
		With(ccts.CtxIndustryClassification, "Construction")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Model.ResolveInContext(acc, situation); !ok {
			b.Fatal("resolution failed")
		}
	}
}

// BenchmarkProfileRoundTrip measures Render + Extract of the Figure 4
// model between the typed and UML representations.
func BenchmarkProfileRoundTrip(b *testing.B) {
	f := fixture.MustBuildHoardingPermit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		um := ccts.ToUML(f.Model)
		if _, err := ccts.FromUML(um); err != nil {
			b.Fatal(err)
		}
	}
}
