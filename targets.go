package ccts

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/go-ccts/ccts/internal/backends"
	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/gen"
)

// Multi-target generation: the Resolve and Plan phases are
// target-agnostic, and a backend turns one plan into one wire format.
// The built-in targets are "xsd" (the paper's native transformation),
// "jsonschema" (draft 2020-12), "proto" (Protocol Buffers 3), "rng"
// (RELAX NG) and "rdfs" (RDF Schema) — the extensions the paper names —
// and "go" (message bindings, the paper's "transferred into code" step).
type (
	// GenProfile is a per-run generation profile: datatype mapping
	// overrides, namespace rewrites, import-location overrides and root
	// preselection. Profiles apply to every target and participate in
	// cache fingerprints.
	GenProfile = gen.Profile
	// GenOutput is the serialized result of a targeted generation run.
	GenOutput = gen.Output
	// GenOutFile is one generated output document.
	GenOutFile = gen.OutFile
)

// ParseGenProfile decodes a JSON profile document, rejecting unknown
// fields and trailing garbage.
func ParseGenProfile(data []byte) (*GenProfile, error) { return gen.ParseProfile(data) }

// Targets lists the registered generation targets, sorted.
func Targets() []string { return backends.Targets() }

// GenerateTargetDocument generates a library for the named target and
// returns the serialized files: the one entry point of every target and
// every library kind. The root rule is GenerateDocument's, and the
// "xsd" target's bytes are exactly GenerateDocument + Schema.Write.
// opts.Context cancels the run.
func GenerateTargetDocument(lib *Library, rootABIE, target string, opts GenerateOptions) (*GenOutput, error) {
	b, ok := backends.For(target)
	if !ok {
		return nil, fmt.Errorf("ccts: %w", backends.ErrUnknown(target))
	}
	plan, err := gen.NewPlan(lib, rootABIE, opts)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteBackend(b)
}

// WriteOutput writes every generated file into dir, creating it if
// needed, and returns the written paths in generation order. Each file
// is written with durable.WriteFile: a temp file in dir, fsynced and
// renamed into place, then the directory fsynced. A failure removes the
// temp file and names the file; files written before it stay intact.
func WriteOutput(out *GenOutput, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ccts: %w", err)
	}
	var paths []string
	for _, f := range out.Files {
		path := filepath.Join(dir, f.Name)
		if err := durable.WriteFile(path, f.Data, wrapSchemaWriter); err != nil {
			return nil, fmt.Errorf("ccts: %w", err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}
