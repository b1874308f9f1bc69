package ccts_test

import (
	"fmt"
	"log"

	ccts "github.com/go-ccts/ccts"
)

// buildSmallModel assembles a minimal Person/Address model used by the
// examples below.
func buildSmallModel() (*ccts.Model, *ccts.Library, *ccts.Library) {
	model := ccts.NewModel("Example")
	biz := model.AddBusinessLibrary("Example")
	cat, err := ccts.InstallCatalog(biz)
	if err != nil {
		log.Fatal(err)
	}
	ccLib := biz.AddLibrary(ccts.KindCCLibrary, "CoreComponents", "urn:example:cc")
	ccLib.Version = "1.0"
	bieLib := biz.AddLibrary(ccts.KindBIELibrary, "Entities", "urn:example:bie")
	bieLib.Version = "1.0"

	address, err := ccLib.AddACC("Address")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := address.AddBCC("Street", cat.CDT(ccts.CDTText), ccts.One); err != nil {
		log.Fatal(err)
	}
	if _, err := address.AddBCC("Country", cat.CDT(ccts.CDTCode), ccts.Optional); err != nil {
		log.Fatal(err)
	}
	return model, ccLib, bieLib
}

// ExampleDeriveABIE shows derivation-by-restriction: the US address
// keeps only the street.
func ExampleDeriveABIE() {
	model, ccLib, bieLib := buildSmallModel()
	_ = model
	address := ccLib.FindACC("Address")

	usAddress, err := ccts.DeriveABIE(bieLib, address, ccts.Restriction{
		Qualifier: "US",
		BBIEs:     []ccts.BBIEPick{{BCC: "Street"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, entity := range usAddress.EntitySet() {
		fmt.Println(entity)
	}
	// Output:
	// US_Address (ABIE)
	// US_Address.Street (BBIE)
}

// ExampleGenerateDocument shows schema generation for a BIE library:
// a library run needs no root ABIE.
func ExampleGenerateDocument() {
	model, ccLib, bieLib := buildSmallModel()
	_ = model
	address := ccLib.FindACC("Address")
	if _, err := ccts.DeriveABIE(bieLib, address, ccts.Restriction{
		Qualifier: "US",
		BBIEs:     []ccts.BBIEPick{{BCC: "Street"}},
	}); err != nil {
		log.Fatal(err)
	}

	res, err := ccts.GenerateDocument(bieLib, "", ccts.GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Primary().ComplexType("US_AddressType") != nil)
	fmt.Println(res.Order[0])
	// Output:
	// true
	// Entities_1.0.xsd
}

// ExampleValidateModel shows the validation engine flagging a library
// without a namespace.
func ExampleValidateModel() {
	model := ccts.NewModel("Broken")
	biz := model.AddBusinessLibrary("B")
	biz.AddLibrary(ccts.KindCCLibrary, "NoNamespace", "")

	report := ccts.ValidateModel(model)
	fmt.Println(report.HasErrors())
	for _, f := range report.Errors() {
		fmt.Println(f.Rule)
		break
	}
	// Output:
	// true
	// SEM-NS-1
}

// ExampleContext_Matches shows business-context matching.
func ExampleContext_Matches() {
	atAddress := ccts.NewContext().With(ccts.CtxGeopolitical, "AT")
	vienna := ccts.NewContext().With(ccts.CtxGeopolitical, "AT")
	boston := ccts.NewContext().With(ccts.CtxGeopolitical, "US")

	fmt.Println(atAddress.Matches(vienna))
	fmt.Println(atAddress.Matches(boston))
	// Output:
	// true
	// false
}
