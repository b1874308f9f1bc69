package ccts

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/go-ccts/ccts/internal/backends"
	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/gen"
)

// Multi-target generation: the Resolve and Plan phases are
// target-agnostic, and a Backend turns one plan into one wire format.
// The built-in targets are "xsd" (the paper's native transformation),
// "jsonschema" (draft 2020-12), "proto" (Protocol Buffers 3), "rng"
// (RELAX NG), "rdfs" (RDF Schema) and "go" (message bindings).
type (
	// GenBackend turns a generation plan into target-language output;
	// see the interface contract for the determinism rules.
	GenBackend = gen.Backend
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

// TargetBackend resolves a target identifier to its backend.
func TargetBackend(target string) (GenBackend, error) {
	b, ok := backends.For(target)
	if !ok {
		return nil, fmt.Errorf("ccts: %w", backends.ErrUnknown(target))
	}
	return b, nil
}

// GenerateTarget generates a BIE, CDT, QDT or ENUM library for the
// named target. The "xsd" target produces bytes identical to
// Generate + Schema.Write.
func GenerateTarget(lib *Library, target string, opts GenerateOptions) (*GenOutput, error) {
	b, err := TargetBackend(target)
	if err != nil {
		return nil, err
	}
	plan, err := gen.PlanLibrary(lib, opts)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteBackend(b)
}

// GenerateTargetDocument generates a DOCLibrary document rooted at the
// named ABIE for the named target. An empty rootABIE falls back to the
// profile's preselected root.
func GenerateTargetDocument(lib *Library, rootABIE, target string, opts GenerateOptions) (*GenOutput, error) {
	b, err := TargetBackend(target)
	if err != nil {
		return nil, err
	}
	plan, err := gen.PlanDocument(lib, opts.Profile.RootOr(rootABIE), opts)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteBackend(b)
}

// GenerateTargetContext is GenerateTarget under a cancellation context.
func GenerateTargetContext(ctx context.Context, lib *Library, target string, opts GenerateOptions) (*GenOutput, error) {
	opts.Context = ctx
	return GenerateTarget(lib, target, opts)
}

// GenerateTargetDocumentContext is GenerateTargetDocument under a
// cancellation context.
func GenerateTargetDocumentContext(ctx context.Context, lib *Library, rootABIE, target string, opts GenerateOptions) (*GenOutput, error) {
	opts.Context = ctx
	return GenerateTargetDocument(lib, rootABIE, target, opts)
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
