// Quickstart reproduces the paper's Figure 1: the core components Person
// and Address, the business information entities US_Person and
// US_Address derived by restriction, and the schema generated for them.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	ccts "github.com/go-ccts/ccts"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A model holds business libraries; a business library holds typed
	// libraries.
	model := ccts.NewModel("Quickstart")
	biz := model.AddBusinessLibrary("Example")

	// Install the standard CCTS 2.01 data types (Code, Text, Date, ...).
	cat, err := ccts.InstallCatalog(biz)
	if err != nil {
		return err
	}

	ccLib := biz.AddLibrary(ccts.KindCCLibrary, "CoreComponents", "urn:example:cc")
	ccLib.Version = "1.0"
	bieLib := biz.AddLibrary(ccts.KindBIELibrary, "USEntities", "urn:example:us")
	bieLib.Version = "1.0"

	// Core components: context-free building blocks (Figure 1, left).
	person, err := ccLib.AddACC("Person")
	if err != nil {
		return err
	}
	if _, err := person.AddBCC("DateofBirth", cat.CDT(ccts.CDTDate), ccts.One); err != nil {
		return err
	}
	if _, err := person.AddBCC("FirstName", cat.CDT(ccts.CDTText), ccts.One); err != nil {
		return err
	}
	address, err := ccLib.AddACC("Address")
	if err != nil {
		return err
	}
	for _, field := range []struct {
		name string
		cdt  string
	}{
		{"Country", ccts.CDTCode},
		{"PostalCode", ccts.CDTText},
		{"Street", ccts.CDTText},
	} {
		if _, err := address.AddBCC(field.name, cat.CDT(field.cdt), ccts.One); err != nil {
			return err
		}
	}
	if _, err := person.AddASCC("Private", address, ccts.One, ccts.AggregationComposite); err != nil {
		return err
	}
	if _, err := person.AddASCC("Work", address, ccts.One, ccts.AggregationComposite); err != nil {
		return err
	}

	// Business information entities: derived by restriction for the US
	// context (Figure 1, right). US_Address drops the Country attribute.
	usAddress, err := ccts.DeriveABIE(bieLib, address, ccts.Restriction{
		Qualifier: "US",
		BBIEs:     []ccts.BBIEPick{{BCC: "PostalCode"}, {BCC: "Street"}},
	})
	if err != nil {
		return err
	}
	usPerson, err := ccts.DeriveABIE(bieLib, person, ccts.Restriction{
		Qualifier: "US",
		BBIEs:     []ccts.BBIEPick{{BCC: "DateofBirth"}, {BCC: "FirstName"}},
		ASBIEs: []ccts.ASBIEPick{
			{Role: "Private", Target: usAddress, Rename: "US_Private"},
			{Role: "Work", Target: usAddress, Rename: "US_Work"},
		},
	})
	if err != nil {
		return err
	}

	// The entity sets of the paper's Sections 2.1 and 2.2.
	fmt.Println("Core components:")
	for _, e := range person.EntitySet() {
		fmt.Println("  " + e)
	}
	fmt.Println("Business information entities:")
	for _, e := range usPerson.EntitySet() {
		fmt.Println("  " + e)
	}

	// Validate the whole model: semantic rules plus the profile's OCL
	// constraints.
	report := ccts.ValidateModel(model)
	if report.HasErrors() {
		for _, f := range report.Findings {
			fmt.Println(f)
		}
		return fmt.Errorf("model is invalid")
	}
	fmt.Println("\nModel validates cleanly.")

	// Generate the schema for the BIE library and print it.
	res, err := ccts.GenerateDocument(bieLib, "", ccts.GenerateOptions{})
	if err != nil {
		return err
	}
	fmt.Println("\nGenerated schema (" + ccts.SchemaFileName(bieLib) + "):")
	return res.Primary().Write(os.Stdout)
}
