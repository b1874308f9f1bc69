package gogen

import (
	"strings"

	"github.com/go-ccts/ccts/internal/gen"
)

// Backend adapts the Go binding generator to the gen.Backend
// interface. Go type names come from a stateful collision-avoiding
// allocator whose output depends on emission order, so Generate
// performs the whole walk in one pass instead of op by op.
type Backend struct{}

// Target implements gen.Backend.
func (Backend) Target() string { return "go" }

// ContentType implements gen.Backend; generated Go source is text.
func (Backend) ContentType() string { return "text/plain; charset=utf-8" }

// Generate implements gen.Backend: one self-contained Go file for the
// document rooted at the plan's root ABIE.
func (Backend) Generate(p *gen.Plan) (*gen.Output, error) {
	code, err := generate(p)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(p.Units()[0].File(), ".xsd") + ".go"
	return &gen.Output{
		Files:       []gen.OutFile{{Name: name, Data: code}},
		RootElement: p.Index().ABIEElementName(p.Root()),
	}, nil
}
