// Package backends is the registry of generation backends: the single
// place that knows every target the pipeline can emit, and the only
// importer of the backend packages. The CLI's -target flag, the
// server's ?target= parameter and the public ccts.GenerateTargetDocument
// entry point all resolve targets here, so adding a backend is one
// registration plus its package.
package backends

import (
	"fmt"
	"sort"
	"strings"

	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/gogen"
	"github.com/go-ccts/ccts/internal/jsonschema"
	"github.com/go-ccts/ccts/internal/protogen"
	"github.com/go-ccts/ccts/internal/rdfs"
	"github.com/go-ccts/ccts/internal/rng"
)

// registry maps target identifiers to backends. Backends are stateless
// values, safe to share across concurrent runs.
var registry = map[string]gen.Backend{
	"xsd":        gen.XSDBackend{},
	"jsonschema": jsonschema.Backend{},
	"proto":      protogen.Backend{},
	"rng":        rng.Backend{},
	"rdfs":       rdfs.Backend{},
	"go":         gogen.Backend{},
}

// For returns the backend for a target identifier.
func For(target string) (gen.Backend, bool) {
	b, ok := registry[target]
	return b, ok
}

// Targets lists the registered target identifiers, sorted.
func Targets() []string {
	out := make([]string, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ErrUnknown builds the standard unknown-target error naming the valid
// choices.
func ErrUnknown(target string) error {
	return fmt.Errorf("unknown target %q (valid: %s)", target, strings.Join(Targets(), ", "))
}
