package ccts

import (
	"io"

	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/registry"
	"github.com/go-ccts/ccts/internal/validate"
	"github.com/go-ccts/ccts/internal/xmi"
)

// XMI interchange ("to use XMI for registering and exchanging core
// components").

// ExportXMI renders the model through the UML profile and writes it as
// an XMI document.
func ExportXMI(m *Model, w io.Writer) error {
	return xmi.Export(ToUML(m), w)
}

// ImportXMI reads an XMI document and extracts the typed model through
// the profile.
func ImportXMI(r io.Reader) (*Model, error) {
	um, err := xmi.Import(r)
	if err != nil {
		return nil, err
	}
	return FromUML(um)
}

// ImportLimits bounds the resources one imported document may consume;
// see limits.Limits. The zero value disables every limit.
type ImportLimits = limits.Limits

// DefaultImportLimits returns the production ingestion limits applied
// by ImportXMI (input bytes, nesting depth, element/attribute counts,
// token length, DTD rejection).
func DefaultImportLimits() ImportLimits { return limits.Default() }

// ImportXMIWithLimits is ImportXMI under caller-chosen resource limits.
// Serving deployments size the limits to their request-body budget; a
// violation surfaces as a *limits.Violation carrying the line:col where
// the budget was crossed (matching errors.Is(err, limits.ErrLimit)).
func ImportXMIWithLimits(r io.Reader, lim ImportLimits) (*Model, error) {
	um, _, err := xmi.ImportWithOptions(r, xmi.ImportOptions{Limits: lim})
	if err != nil {
		return nil, err
	}
	return FromUML(um)
}

// ImportXMIDiagnostics reads an XMI document leniently: instead of
// aborting on the first defect, recoverable problems — dangling ID
// references, unknown stereotypes, malformed tagged values or
// multiplicities — are collected as findings with source positions, and
// a best-effort partial UML model is returned alongside them. Defective
// associations and dependencies are dropped from the partial model so
// downstream passes never see half-resolved links. Unrecoverable
// problems (malformed XML, resource-limit violations) still return an
// error; the model may then be nil.
//
// This is the repair workflow counterpart to ImportUMLXMI: a registry
// ingesting third-party XMI can show every defect with line:col in one
// pass rather than failing defect-by-defect.
func ImportXMIDiagnostics(r io.Reader) (*UMLModel, *validate.Report, error) {
	return ImportXMIDiagnosticsWithLimits(r, limits.Default())
}

// ImportXMIDiagnosticsWithLimits is ImportXMIDiagnostics under
// caller-chosen resource limits, for servers whose request-body budget
// differs from the batch default.
func ImportXMIDiagnosticsWithLimits(r io.Reader, lim ImportLimits) (*UMLModel, *validate.Report, error) {
	um, diags, err := xmi.ImportWithOptions(r, xmi.ImportOptions{
		Limits:          lim,
		Lenient:         true,
		StereotypeKnown: profile.KnownStereotype,
	})
	return um, validate.ImportReport(diags), err
}

// ExportUMLXMI writes a UML model as XMI without extraction, for tooling
// that works on the stereotyped representation directly.
func ExportUMLXMI(um *UMLModel, w io.Writer) error { return xmi.Export(um, w) }

// ImportUMLXMI reads an XMI document into a UML model without
// extraction.
func ImportUMLXMI(r io.Reader) (*UMLModel, error) { return xmi.Import(r) }

// Registry types (the paper's registration/harmonisation workflow).
type (
	// Registry indexes registered core components by dictionary entry
	// name.
	Registry = registry.Registry
	// RegistryEntry is one registered dictionary item.
	RegistryEntry = registry.Entry
)

// NewRegistry returns an empty component registry.
func NewRegistry() *Registry { return registry.New() }
