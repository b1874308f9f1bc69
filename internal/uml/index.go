package uml

import (
	"fmt"
	"strings"
)

// Index answers the model's two cross-reference queries, attribute type
// resolution and dependencies by client, from lookups built in one walk.
// It agrees with Model.ResolveType and Model.DependenciesFrom, which
// rescan every package on each call. UML fields are public and mutable,
// so an index is a snapshot: build one per pass over a model and drop it
// when the pass ends.
type Index struct {
	m       *Model
	classes map[string]*Class
	enums   map[string]*Enumeration
	deps    map[Classifier][]*Dependency
}

// NewIndex builds the lookups in one depth-first walk of m. Like
// FindClass and FindEnumeration, the first classifier of a simple name
// in walk order wins.
func NewIndex(m *Model) *Index {
	ix := &Index{
		m:       m,
		classes: map[string]*Class{},
		enums:   map[string]*Enumeration{},
		deps:    map[Classifier][]*Dependency{},
	}
	m.WalkPackages(func(p *Package) bool {
		for _, c := range p.Classes {
			if _, ok := ix.classes[c.Name]; !ok {
				ix.classes[c.Name] = c
			}
		}
		for _, e := range p.Enumerations {
			if _, ok := ix.enums[e.Name]; !ok {
				ix.enums[e.Name] = e
			}
		}
		for _, d := range p.Dependencies {
			ix.deps[d.Client] = append(ix.deps[d.Client], d)
		}
		return true
	})
	return ix
}

// ResolveType is Model.ResolveType answered from the index, with the
// same classifier and the same error. A class wins over an enumeration
// of the same simple name. Qualified (::) names, which rendered models
// never use, fall back to the model walk.
func (ix *Index) ResolveType(typeName string) (Classifier, error) {
	if typeName == "" {
		return nil, fmt.Errorf("uml: empty type name")
	}
	if strings.Contains(typeName, "::") {
		return ix.m.ResolveType(typeName)
	}
	if c, ok := ix.classes[typeName]; ok {
		return c, nil
	}
	if e, ok := ix.enums[typeName]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("uml: unresolved type %q", typeName)
}

// DependenciesFrom is Model.DependenciesFrom answered from the index:
// the dependencies whose client is the given classifier, in walk order.
// The slice is shared; callers must not modify it.
func (ix *Index) DependenciesFrom(client Classifier) []*Dependency {
	return ix.deps[client]
}
