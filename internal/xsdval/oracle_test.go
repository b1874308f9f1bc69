package xsdval

import (
	"encoding/xml"
	"fmt"
	"io"
)

// This file is the instance reader that Validate replaced, a bare
// encoding/xml decoder, kept as the differential oracle of the scanner
// (differential_test.go). Only its entry point is renamed and it builds
// the package's name and attr values in place of xml.Name and xml.Attr.

// oracleValidate parses r with the oracle reader and validates it.
func (ss *SchemaSet) oracleValidate(r io.Reader) (*Result, error) {
	root, err := oracleParseDoc(r)
	if err != nil {
		return nil, err
	}
	return ss.validateDoc(root)
}

func oracleParseDoc(r io.Reader) (*node, error) {
	dec := xml.NewDecoder(r)
	var root *node
	var stack []*node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xsdval: malformed XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &node{name: name{t.Name.Space, t.Name.Local}, offset: dec.InputOffset()}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" || a.Name.Space == xsiNamespace {
					continue
				}
				n.attrs = append(n.attrs, attr{name{a.Name.Space, a.Name.Local}, a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xsdval: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.children = append(parent.children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text = append(stack[len(stack)-1].text, t...)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xsdval: empty document")
	}
	return root, nil
}
