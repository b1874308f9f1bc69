package rng

import (
	"bytes"
	"strings"

	"github.com/go-ccts/ccts/internal/gen"
)

// Backend adapts the RELAX NG generator to the gen.Backend interface.
// The grammar's define names come from a stateful prefix allocator
// whose numbering depends on walk order, so Generate performs the whole
// walk in one pass instead of op by op.
type Backend struct{}

// Target implements gen.Backend.
func (Backend) Target() string { return "rng" }

// ContentType implements gen.Backend; RELAX NG XML syntax is XML.
func (Backend) ContentType() string { return "application/xml" }

// Generate implements gen.Backend: one self-contained grammar file
// named after the requested library.
func (Backend) Generate(p *gen.Plan) (*gen.Output, error) {
	g, err := generate(p)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(p.Units()[0].File(), ".xsd") + ".rng"
	// Copy out of the grown buffer so a cached output holds no slack.
	out := &gen.Output{Files: []gen.OutFile{{Name: name, Data: bytes.Clone(g.bytes())}}}
	if root := p.Root(); root != nil {
		out.RootElement = p.Index().ABIEElementName(root)
	}
	return out, nil
}
