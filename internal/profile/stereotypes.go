// Package profile implements the paper's primary contribution: the UML
// Profile for Core Components (BCSS, candidate 1.0, based on CCTS 2.01).
// It defines the profile's stereotypes and tagged values (Figure 3),
// registers the OCL well-formedness constraints per stereotype, adapts
// UML elements to the OCL evaluator, and converts between the stereotyped
// UML representation (internal/uml) and the typed CCTS model
// (internal/core) in both directions.
package profile

import (
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/uml"
)

// Stereotypes of the Management package (Figure 3, left column): the
// library containers.
const (
	StBIELibrary      = "BIELibrary"
	StBusinessLibrary = "BusinessLibrary"
	StCCLibrary       = "CCLibrary"
	StCDTLibrary      = "CDTLibrary"
	StDOCLibrary      = "DOCLibrary"
	StENUMLibrary     = "ENUMLibrary"
	StPRIMLibrary     = "PRIMLibrary"
	StQDTLibrary      = "QDTLibrary"
)

// Stereotypes of the DataTypes package (Figure 3, middle column).
const (
	StCDT  = "CDT"
	StCON  = "CON"
	StENUM = "ENUM"
	StPRIM = "PRIM"
	StQDT  = "QDT"
	StSUP  = "SUP"
)

// Stereotypes of the Common package (Figure 3, right column). BIE and CC
// are the abstract generalisations the profile declares for OCL
// convenience; they never appear on concrete elements.
const (
	StABIE    = "ABIE"
	StACC     = "ACC"
	StASBIE   = "ASBIE"
	StASCC    = "ASCC"
	StBasedOn = "basedOn"
	StBBIE    = "BBIE"
	StBCC     = "BCC"
	StBIE     = "BIE"
	StCC      = "CC"
)

// KnownStereotype reports whether st is a stereotype the profile
// defines for the given UML element kind ("package", "class",
// "enumeration", "attribute", "association" or "dependency"); the
// lenient XMI import reports the rest as XMI-STEREO findings.
func KnownStereotype(element, st string) bool {
	switch element {
	case "package":
		return st == StBusinessLibrary || IsLibraryStereotype(st)
	case "class":
		switch st {
		case StACC, StABIE, StCDT, StQDT, StPRIM:
			return true
		}
	case "enumeration":
		return st == StENUM
	case "attribute":
		switch st {
		case StBCC, StBBIE, StCON, StSUP:
			return true
		}
	case "association":
		return st == StASCC || st == StASBIE
	case "dependency":
		return st == StBasedOn
	}
	return false
}

// ManagementStereotypes lists the 8 library stereotypes.
var ManagementStereotypes = []string{
	StBIELibrary, StBusinessLibrary, StCCLibrary, StCDTLibrary,
	StDOCLibrary, StENUMLibrary, StPRIMLibrary, StQDTLibrary,
}

// DataTypeStereotypes lists the 6 data-type stereotypes.
var DataTypeStereotypes = []string{StCDT, StCON, StENUM, StPRIM, StQDT, StSUP}

// CommonStereotypes lists the 9 stereotypes of the Common package.
var CommonStereotypes = []string{
	StABIE, StACC, StASBIE, StASCC, StBasedOn, StBBIE, StBCC, StBIE, StCC,
}

// Tagged value names the generator consumes. The paper: "Every library
// package within a business library has several tagged values, steering
// the generation process."
const (
	// TagBaseURN determines the target namespace of the library's schema.
	TagBaseURN = "baseURN"
	// TagNamespacePrefix sets a user-specific namespace prefix
	// (commonAggregates in Figure 6); absent, a standard prefix is
	// generated.
	TagNamespacePrefix = "NamespacePrefix"
	// TagVersionIdentifier participates in generated file names.
	TagVersionIdentifier = "VersionIdentifier"
	// TagBusinessTerm, TagDefinition and TagUniqueIdentifier feed the
	// CCTS annotation blocks when the generator runs with annotations
	// enabled.
	TagBusinessTerm     = "businessTerm"
	TagDefinition       = "definition"
	TagUniqueIdentifier = "uniqueIdentifier"
	// TagBasedOnRole and TagBasedOnProperty record renames during
	// derivation so the basedOn link of an ASBIE/BBIE stays resolvable
	// after qualification (US_Private based on Private).
	TagBasedOnRole     = "basedOnRole"
	TagBasedOnProperty = "basedOnProperty"
	// TagBusinessContext carries an ABIE's business context declaration
	// (core.Context.String form) through the UML/XMI representation.
	TagBusinessContext = "businessContext"
)

// LibraryTags lists the tagged values defined on library packages.
var LibraryTags = []string{TagBaseURN, TagNamespacePrefix, TagVersionIdentifier, TagBusinessTerm, TagUniqueIdentifier}

// ElementTags lists the tagged values defined on classifiers and
// properties.
var ElementTags = []string{TagBusinessTerm, TagDefinition, TagUniqueIdentifier, TagVersionIdentifier}

// libraryKindToStereotype maps core library kinds to package stereotypes.
var libraryKindToStereotype = map[core.LibraryKind]string{
	core.KindCCLibrary:   StCCLibrary,
	core.KindBIELibrary:  StBIELibrary,
	core.KindCDTLibrary:  StCDTLibrary,
	core.KindQDTLibrary:  StQDTLibrary,
	core.KindENUMLibrary: StENUMLibrary,
	core.KindPRIMLibrary: StPRIMLibrary,
	core.KindDOCLibrary:  StDOCLibrary,
}

// stereotypeToLibraryKind is the inverse of libraryKindToStereotype.
var stereotypeToLibraryKind = func() map[string]core.LibraryKind {
	m := make(map[string]core.LibraryKind, len(libraryKindToStereotype))
	for k, v := range libraryKindToStereotype {
		m[v] = k
	}
	return m
}()

// LibraryStereotype returns the package stereotype for a library kind.
func LibraryStereotype(k core.LibraryKind) string { return libraryKindToStereotype[k] }

// KindForStereotype returns the library kind for a package stereotype;
// ok is false for non-library stereotypes (e.g. BusinessLibrary).
func KindForStereotype(st string) (core.LibraryKind, bool) {
	k, ok := stereotypeToLibraryKind[st]
	return k, ok
}

// IsLibraryStereotype reports whether st is one of the seven
// element-containing library stereotypes.
func IsLibraryStereotype(st string) bool {
	_, ok := stereotypeToLibraryKind[st]
	return ok
}

// Inventory describes the profile contents; TestFigure3ProfileInventory
// checks it against the paper's counts (8 libraries, 6 data types, 9
// common stereotypes).
type Inventory struct {
	Management []string
	DataTypes  []string
	Common     []string
	Tags       []string
}

// ProfileInventory returns the full stereotype and tagged-value
// inventory.
func ProfileInventory() Inventory {
	tags := make([]string, 0, len(LibraryTags)+len(ElementTags))
	tags = append(tags, LibraryTags...)
	for _, t := range ElementTags {
		dup := false
		for _, u := range tags {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			tags = append(tags, t)
		}
	}
	return Inventory{
		Management: append([]string(nil), ManagementStereotypes...),
		DataTypes:  append([]string(nil), DataTypeStereotypes...),
		Common:     append([]string(nil), CommonStereotypes...),
		Tags:       tags,
	}
}

// applyLibraryTags copies a core library's generator-relevant fields onto
// a UML package's tagged values.
func applyLibraryTags(pkg *uml.Package, lib *core.Library) {
	pkg.Tags = lib.Tags.Clone()
	if lib.BaseURN != "" {
		pkg.Tags.Set(TagBaseURN, lib.BaseURN)
	}
	if lib.NamespacePrefix != "" {
		pkg.Tags.Set(TagNamespacePrefix, lib.NamespacePrefix)
	}
	if lib.Version != "" {
		pkg.Tags.Set(TagVersionIdentifier, lib.Version)
	}
}
