package gen

import (
	"bytes"
	"fmt"
)

// XSDBackend is the paper's native target expressed as a Backend:
// Generate runs the classic emit phase and serializes each schema with
// the deterministic writer, so the bytes are exactly those of
// GenerateDocument + Schema.Write.
type XSDBackend struct{}

// Target implements Backend.
func (XSDBackend) Target() string { return "xsd" }

// ContentType implements Backend.
func (XSDBackend) ContentType() string { return "application/xml" }

// Generate implements Backend.
func (XSDBackend) Generate(p *Plan) (*Output, error) {
	res, err := p.execute()
	if err != nil {
		return nil, err
	}
	out := &Output{RootElement: res.RootElement}
	for _, name := range res.Order {
		var buf bytes.Buffer
		if err := res.Schemas[name].Write(&buf); err != nil {
			return nil, fmt.Errorf("gen: serializing %s: %w", name, err)
		}
		out.Files = append(out.Files, OutFile{Name: name, Data: buf.Bytes()})
	}
	return out, nil
}
