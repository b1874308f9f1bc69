// Package ccts is a Go implementation of the UN/CEFACT Core Components
// Technical Specification (CCTS 2.01) modeling stack described in
// C. Huemer and P. Liegl, "A UML Profile for Core Components and their
// Transformation to XSD" (ICDE Workshops 2007): a typed core component
// model, the UML profile with its OCL constraints, the transformation to
// XML Schema following the UN/CEFACT naming and design rules, a model
// validation engine, an XML instance validator, XMI interchange and a
// component registry.
//
// The typical flow mirrors the paper:
//
//	model := ccts.NewModel("EasyBiz")
//	biz := model.AddBusinessLibrary("EasyBiz")
//	cat, _ := ccts.InstallCatalog(biz)            // standard CDTs/PRIMs
//	// ... build ACCs in a CCLibrary, derive ABIEs by restriction ...
//	report := ccts.ValidateModel(model)           // OCL + semantic rules
//	res, _ := ccts.GenerateDocument(docLib, "HoardingPermit", ccts.GenerateOptions{})
//	set, _ := ccts.CompileSchemas(res)            // instance validation
//
// Generation has two entry points over one plan. GenerateDocument
// returns the typed XSD schema set that CompileSchemas needs;
// GenerateTargetDocument returns the serialized files of any target
// (xsd, jsonschema, proto, rng, rdfs, go). Both take any library kind:
// the root ABIE is used for a DOCLibrary and ignored otherwise, and
// GenerateOptions.Context cancels either.
package ccts

import (
	"github.com/go-ccts/ccts/internal/catalog"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/uml"
)

// Core model types.
type (
	// Model is the root of a core components repository.
	Model = core.Model
	// BusinessLibrary groups the typed libraries of one business domain.
	BusinessLibrary = core.BusinessLibrary
	// Library is one typed container of CCTS elements.
	Library = core.Library
	// LibraryKind identifies the library stereotype.
	LibraryKind = core.LibraryKind

	// ACC is an aggregate core component.
	ACC = core.ACC
	// BCC is a basic core component.
	BCC = core.BCC
	// ASCC is an association core component.
	ASCC = core.ASCC
	// ABIE is an aggregate business information entity.
	ABIE = core.ABIE
	// BBIE is a basic business information entity.
	BBIE = core.BBIE
	// ASBIE is an association business information entity.
	ASBIE = core.ASBIE
	// CDT is a core data type.
	CDT = core.CDT
	// QDT is a qualified data type.
	QDT = core.QDT
	// ENUM is an enumeration type.
	ENUM = core.ENUM
	// PRIM is a primitive type.
	PRIM = core.PRIM
	// DataType is a CDT or QDT.
	DataType = core.DataType
	// ComponentType is a PRIM or ENUM.
	ComponentType = core.ComponentType
	// ContentComponent is the CON part of a data type.
	ContentComponent = core.ContentComponent
	// SupplementaryComponent is a SUP part of a data type.
	SupplementaryComponent = core.SupplementaryComponent

	// Cardinality is an occurrence range.
	Cardinality = core.Cardinality

	// ModelIndex is the resolve-phase index of a model: per-library
	// symbol tables plus memoized naming-and-design-rule artifacts,
	// shared by generation, validation and instance generation.
	// Immutable once built and safe for concurrent readers.
	ModelIndex = core.ModelIndex
	// LibraryIndex is the symbol table of one resolved library.
	LibraryIndex = core.LibraryIndex

	// Context is a CCTS business context declaration (category → values).
	Context = core.Context
	// ContextCategory is one of the eight CCTS context categories.
	ContextCategory = core.ContextCategory

	// Restriction describes how an ABIE restricts its ACC.
	Restriction = core.Restriction
	// BBIEPick selects a BCC during derivation.
	BBIEPick = core.BBIEPick
	// ASBIEPick selects an ASCC during derivation.
	ASBIEPick = core.ASBIEPick
	// QDTRestriction describes how a QDT restricts its CDT.
	QDTRestriction = core.QDTRestriction
	// SupPick selects a SUP during QDT derivation.
	SupPick = core.SupPick
)

// Library kinds.
const (
	KindCCLibrary   = core.KindCCLibrary
	KindBIELibrary  = core.KindBIELibrary
	KindCDTLibrary  = core.KindCDTLibrary
	KindQDTLibrary  = core.KindQDTLibrary
	KindENUMLibrary = core.KindENUMLibrary
	KindPRIMLibrary = core.KindPRIMLibrary
	KindDOCLibrary  = core.KindDOCLibrary
)

// Aggregation kinds for ASCC/ASBIE connectors.
const (
	AggregationNone      = uml.AggregationNone
	AggregationShared    = uml.AggregationShared
	AggregationComposite = uml.AggregationComposite
)

// Common cardinalities.
var (
	// One is the mandatory single occurrence [1..1].
	One = Cardinality{Lower: 1, Upper: 1}
	// Optional is [0..1].
	Optional = Cardinality{Lower: 0, Upper: 1}
	// Many is [0..*].
	Many = Cardinality{Lower: 0, Upper: Unbounded}
	// OneOrMore is [1..*].
	OneOrMore = Cardinality{Lower: 1, Upper: Unbounded}
)

// Unbounded is the unlimited upper bound.
const Unbounded = core.Unbounded

// The eight business context categories of CCTS 2.01.
const (
	CtxBusinessProcess        = core.CtxBusinessProcess
	CtxProductClassification  = core.CtxProductClassification
	CtxIndustryClassification = core.CtxIndustryClassification
	CtxGeopolitical           = core.CtxGeopolitical
	CtxOfficialConstraints    = core.CtxOfficialConstraints
	CtxBusinessProcessRole    = core.CtxBusinessProcessRole
	CtxSupportingRole         = core.CtxSupportingRole
	CtxSystemCapabilities     = core.CtxSystemCapabilities
)

// NewModel returns an empty core components model.
func NewModel(name string) *Model { return core.NewModel(name) }

// ResolveModel builds the resolve-phase index of a model. Build it once
// and pass it to ValidateModelIndexed and GenerateOptions.Index when
// running several pipeline stages (or repeated generations) over an
// unchanged model.
func ResolveModel(m *Model) *ModelIndex { return core.NewModelIndex(m) }

// ResolveLibraries builds a resolve-phase index covering the given
// libraries and everything they transitively reference; it serves
// detached libraries without an owning model.
func ResolveLibraries(libs ...*Library) *ModelIndex { return core.IndexLibraries(libs...) }

// NewContext returns the default (unconstrained) business context; add
// constraints with Context.With.
func NewContext() Context { return core.NewContext() }

// ParseContext parses the Context.String form
// ("Geopolitical=AT,DE; IndustryClassification=Travel").
func ParseContext(s string) (Context, error) { return core.ParseContext(s) }

// DeriveABIE creates an ABIE in lib by restricting acc; every CCTS
// restriction rule is checked.
func DeriveABIE(lib *Library, acc *ACC, r Restriction) (*ABIE, error) {
	return core.DeriveABIE(lib, acc, r)
}

// DeriveQDT creates a QDT in lib by restricting cdt.
func DeriveQDT(lib *Library, cdt *CDT, r QDTRestriction) (*QDT, error) {
	return core.DeriveQDT(lib, cdt, r)
}

// Content builds the conventional content component named "Content".
func Content(t ComponentType) ContentComponent { return core.Content(t) }

// Catalog bundles the installed standard data type libraries.
type Catalog = catalog.Catalog

// CatalogOptions configures the standard library installation.
type CatalogOptions = catalog.Options

// InstallCatalog adds the CCTS 2.01 primitive types and approved core
// data types (Amount, BinaryObject, Code, DateTime, Identifier,
// Indicator, Measure, Numeric, Quantity, Text plus the Date/Time/Name
// secondary representation terms) to the business library.
func InstallCatalog(b *BusinessLibrary) (*Catalog, error) {
	return catalog.Install(b)
}

// InstallCatalogWith is InstallCatalog with explicit names and URNs.
func InstallCatalogWith(b *BusinessLibrary, opts CatalogOptions) (*Catalog, error) {
	return catalog.InstallWith(b, opts)
}

// Catalog content names, re-exported for convenience.
const (
	CDTAmount       = catalog.CDTAmount
	CDTBinaryObject = catalog.CDTBinaryObject
	CDTCode         = catalog.CDTCode
	CDTDate         = catalog.CDTDate
	CDTDateTime     = catalog.CDTDateTime
	CDTIdentifier   = catalog.CDTIdentifier
	CDTIndicator    = catalog.CDTIndicator
	CDTMeasure      = catalog.CDTMeasure
	CDTName         = catalog.CDTName
	CDTNumeric      = catalog.CDTNumeric
	CDTQuantity     = catalog.CDTQuantity
	CDTText         = catalog.CDTText
	CDTTime         = catalog.CDTTime

	PrimBinary       = catalog.PrimBinary
	PrimBoolean      = catalog.PrimBoolean
	PrimDecimal      = catalog.PrimDecimal
	PrimDouble       = catalog.PrimDouble
	PrimFloat        = catalog.PrimFloat
	PrimInteger      = catalog.PrimInteger
	PrimString       = catalog.PrimString
	PrimTimeDuration = catalog.PrimTimeDuration
	PrimTimePoint    = catalog.PrimTimePoint
)
