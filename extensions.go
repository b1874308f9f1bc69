package ccts

import (
	"github.com/go-ccts/ccts/internal/diagram"
	"github.com/go-ccts/ccts/internal/diff"
	"github.com/go-ccts/ccts/internal/instgen"
	"github.com/go-ccts/ccts/internal/maintain"
)

// DiagramOptions control PlantUML rendering.
type DiagramOptions = diagram.Options

// RenderDiagram produces PlantUML class-diagram source in the visual
// language of the paper's figures (stereotyped classes, «basedOn»
// dependencies, aggregation connectors).
func RenderDiagram(m *Model, opts DiagramOptions) string {
	return diagram.Render(m, opts)
}

// Sample instance generation.

// SampleMode selects how much optional content a generated sample
// message carries.
type SampleMode = instgen.Mode

// Sample generation modes.
const (
	// SampleMinimal emits only required elements and attributes.
	SampleMinimal = instgen.Minimal
	// SampleFull emits every optional item once and unbounded elements
	// twice.
	SampleFull = instgen.Full
)

// GenerateSample produces a sample XML message for the named root
// element that validates against the schema set by construction.
func GenerateSample(set *SchemaSet, rootNamespace, rootName string, mode SampleMode) (string, error) {
	return instgen.Generate(set, rootNamespace, rootName, instgen.Options{Mode: mode})
}

// GenerateSampleForLibrary is GenerateSample addressed by model elements
// instead of resolved names: the DOCLibrary's namespace and the root
// ABIE's element name come from the set's resolve-phase index (attached
// by CompileSchemas), so callers need not re-derive them.
func GenerateSampleForLibrary(set *SchemaSet, lib *Library, rootABIE *ABIE, mode SampleMode) (string, error) {
	return instgen.GenerateForLibrary(set, set.Index(), lib, rootABIE, instgen.Options{Mode: mode})
}

// Maintenance console operations (the paper's planned "core components
// management console").

// Usage records one reference to a model element.
type Usage = maintain.Usage

// ModelStats summarises a model's element counts.
type ModelStats = maintain.Stats

// UpdateNamespaces rewrites every library baseURN starting with
// oldPrefix; it returns the number of libraries changed.
func UpdateNamespaces(m *Model, oldPrefix, newPrefix string) int {
	return maintain.UpdateNamespaces(m, oldPrefix, newPrefix)
}

// BumpVersions sets every library's version.
func BumpVersions(m *Model, version string) int {
	return maintain.BumpVersions(m, version)
}

// WhereUsed lists every reference to the named element.
func WhereUsed(m *Model, name string) []Usage { return maintain.WhereUsed(m, name) }

// UnusedComponents lists elements nothing references.
func UnusedComponents(m *Model) []string { return maintain.Unused(m) }

// RenameABIE safely renames an ABIE (references follow automatically).
func RenameABIE(abie *ABIE, newName string) error { return maintain.RenameABIE(abie, newName) }

// RenameACC safely renames an ACC.
func RenameACC(acc *ACC, newName string) error { return maintain.RenameACC(acc, newName) }

// CollectStats counts a model's elements.
func CollectStats(m *Model) ModelStats { return maintain.Collect(m) }

// Model comparison for harmonisation rounds.
type (
	// DiffReport lists the changes between two model versions.
	DiffReport = diff.Report
	// DiffChange is one reported difference.
	DiffChange = diff.Change
)

// Change kinds reported by CompareModels.
const (
	DiffAdded    = diff.Added
	DiffRemoved  = diff.Removed
	DiffModified = diff.Modified
)

// CompareModels diffs two versions of a model (old → new), reporting
// added, removed and modified libraries and elements.
func CompareModels(oldModel, newModel *Model) *DiffReport {
	return diff.Compare(oldModel, newModel)
}
