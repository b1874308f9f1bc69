package rdfs

import (
	"fmt"
	"strings"

	"github.com/go-ccts/ccts/internal/gen"
)

// Backend adapts the RDF Schema generator to the gen.Backend
// interface. The vocabulary is a whole-model document (RDF has no
// per-library modularity here), so Generate renders the model in its
// declaration order instead of op by op.
type Backend struct{}

// Target implements gen.Backend.
func (Backend) Target() string { return "rdfs" }

// ContentType implements gen.Backend.
func (Backend) ContentType() string { return "application/rdf+xml" }

// Generate implements gen.Backend: one vocabulary document named after
// the requested library.
func (Backend) Generate(p *gen.Plan) (*gen.Output, error) {
	u := p.Units()[0]
	m := u.Library().Model()
	if m == nil {
		return nil, fmt.Errorf("rdfs: library %q is not part of a model", u.Library().Name)
	}
	doc, err := render(m, p.Index(), p.Namespace)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(u.File(), ".xsd") + ".rdf"
	out := &gen.Output{Files: []gen.OutFile{{Name: name, Data: doc}}}
	if root := p.Root(); root != nil {
		out.RootElement = p.Index().ABIEElementName(root)
	}
	return out, nil
}
