// Artifacts generates every document artefact the toolchain can derive
// from one model — the paper's outlook of "a tool supported modeling of
// core components and the automated generation of document artifacts":
// XSD schemas, a RELAX NG grammar, an RDF Schema vocabulary, a PlantUML
// diagram, a sample message, the XMI interchange file and a
// harmonisation diff against a revised version.
//
// Run with: go run ./examples/artifacts [outdir]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	ccts "github.com/go-ccts/ccts"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	outDir := "artifacts-out"
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	model, docLib, err := buildModel()
	if err != nil {
		return err
	}
	if report := ccts.ValidateModel(model); report.HasErrors() {
		return fmt.Errorf("model invalid: %v", report.Errors())
	}

	write := func(name, content string) error {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %-28s %6d bytes\n", name, len(content))
		return nil
	}

	// 1. XSD schema set.
	res, err := ccts.GenerateDocument(docLib, "Booking", ccts.GenerateOptions{Annotate: true})
	if err != nil {
		return err
	}
	if _, err := ccts.WriteSchemas(res, outDir); err != nil {
		return err
	}
	fmt.Printf("wrote %d XSD schema(s)\n", len(res.Order))

	// 2. RELAX NG grammar and 3. RDF Schema vocabulary: two more
	// targets of the same transformation.
	for _, t := range []struct{ target, name string }{{"rng", "Booking.rng"}, {"rdfs", "Booking.rdfs.xml"}} {
		out, err := ccts.GenerateTargetDocument(docLib, "Booking", t.target, ccts.GenerateOptions{})
		if err != nil {
			return err
		}
		if err := write(t.name, string(out.Files[0].Data)); err != nil {
			return err
		}
	}

	// 4. PlantUML diagram.
	if err := write("Booking.puml", ccts.RenderDiagram(model, ccts.DiagramOptions{})); err != nil {
		return err
	}

	// 5. A sample message that validates by construction.
	set, err := ccts.CompileSchemas(res)
	if err != nil {
		return err
	}
	sample, err := ccts.GenerateSample(set, docLib.BaseURN, "Booking", ccts.SampleFull)
	if err != nil {
		return err
	}
	vr, err := set.ValidateString(sample)
	if err != nil {
		return err
	}
	if !vr.Valid() {
		return fmt.Errorf("generated sample invalid: %v", vr.Errors)
	}
	if err := write("Booking.sample.xml", sample); err != nil {
		return err
	}

	// 6. XMI interchange.
	xmiPath := filepath.Join(outDir, "Booking.xmi")
	xf, err := os.Create(xmiPath)
	if err != nil {
		return err
	}
	if err := ccts.ExportXMI(model, xf); err != nil {
		xf.Close()
		return err
	}
	xf.Close()
	fmt.Printf("wrote %-28s\n", "Booking.xmi")

	// 7. Harmonisation diff against a revised model version.
	revised, revisedDoc, err := buildModel()
	if err != nil {
		return err
	}
	_ = revisedDoc
	revised.FindLibrary("TravelAggregates").Version = "1.1"
	traveler := revised.FindABIE("Traveler")
	loyalty := revised.FindACC("Person").FindBCC("LoyaltyNumber")
	if _, err := traveler.AddBBIE("LoyaltyNumber", loyalty, nil, ccts.Optional); err != nil {
		return err
	}
	diff := ccts.CompareModels(model, revised)
	fmt.Println("changes in revision 1.1:")
	for _, c := range diff.Changes {
		fmt.Println("  " + c.String())
	}
	return nil
}

// buildModel creates a small travel-booking model (the paper's §2.2
// example context: "travel industry").
func buildModel() (*ccts.Model, *ccts.Library, error) {
	model := ccts.NewModel("Travel")
	biz := model.AddBusinessLibrary("Travel")
	cat, err := ccts.InstallCatalog(biz)
	if err != nil {
		return nil, nil, err
	}
	ccLib := biz.AddLibrary(ccts.KindCCLibrary, "TravelComponents", "urn:travel:cc")
	ccLib.Version = "1.0"
	bieLib := biz.AddLibrary(ccts.KindBIELibrary, "TravelAggregates", "urn:travel:bie")
	bieLib.Version = "1.0"
	docLib := biz.AddLibrary(ccts.KindDOCLibrary, "BookingDocument", "urn:travel:booking")
	docLib.Version = "1.0"

	person, err := ccLib.AddACC("Person")
	if err != nil {
		return nil, nil, err
	}
	for _, b := range []struct {
		name string
		cdt  string
		card ccts.Cardinality
	}{
		{"Name", ccts.CDTName, ccts.One},
		{"PassportNumber", ccts.CDTIdentifier, ccts.Optional},
		{"LoyaltyNumber", ccts.CDTIdentifier, ccts.Optional},
	} {
		if _, err := person.AddBCC(b.name, cat.CDT(b.cdt), b.card); err != nil {
			return nil, nil, err
		}
	}
	booking, err := ccLib.AddACC("Booking")
	if err != nil {
		return nil, nil, err
	}
	for _, b := range []struct {
		name string
		cdt  string
	}{
		{"Reference", ccts.CDTIdentifier},
		{"DepartureDate", ccts.CDTDate},
		{"TotalPrice", ccts.CDTAmount},
	} {
		if _, err := booking.AddBCC(b.name, cat.CDT(b.cdt), ccts.One); err != nil {
			return nil, nil, err
		}
	}
	if _, err := booking.AddASCC("Lead", person, ccts.One, ccts.AggregationComposite); err != nil {
		return nil, nil, err
	}
	if _, err := booking.AddASCC("Accompanying", person, ccts.Many, ccts.AggregationComposite); err != nil {
		return nil, nil, err
	}

	traveler, err := ccts.DeriveABIE(bieLib, person, ccts.Restriction{
		Name:  "Traveler",
		BBIEs: []ccts.BBIEPick{{BCC: "Name"}, {BCC: "PassportNumber"}},
	})
	if err != nil {
		return nil, nil, err
	}
	traveler.SetContext(ccts.NewContext().With(ccts.CtxIndustryClassification, "Travel"))
	if _, err := ccts.DeriveABIE(docLib, booking, ccts.Restriction{
		Name: "Booking",
		BBIEs: []ccts.BBIEPick{
			{BCC: "Reference"}, {BCC: "DepartureDate"}, {BCC: "TotalPrice"},
		},
		ASBIEs: []ccts.ASBIEPick{
			{Role: "Lead", Target: traveler},
			{Role: "Accompanying", Target: traveler},
		},
	}); err != nil {
		return nil, nil, err
	}
	return model, docLib, nil
}
