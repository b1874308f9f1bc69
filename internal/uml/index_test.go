package uml_test

import (
	"os"
	"testing"

	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
	"github.com/go-ccts/ccts/internal/xmi"
)

// TestIndexAgreesWithModelWalks holds the one-walk index to the model
// walks it replaces, on every fixture's rendered model and on the
// lenient import of the EasyBiz export.
func TestIndexAgreesWithModelWalks(t *testing.T) {
	models := map[string]*uml.Model{}
	for _, c := range fixture.Corpus() {
		models[c.Name] = profile.Render(c.Model)
	}
	data, err := os.ReadFile("../../testdata/golden/EasyBiz.xmi")
	if err != nil {
		t.Fatal(err)
	}
	imported, _, err := xmi.ImportBytes(data, xmi.ImportOptions{Limits: limits.Default(), Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	models["EasyBiz.xmi"] = imported

	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			addSharedNames(m)
			ix := uml.NewIndex(m)
			for _, q := range typeQueries(m) {
				got, gotErr := ix.ResolveType(q)
				want, wantErr := m.ResolveType(q)
				if got != want || errText(gotErr) != errText(wantErr) {
					t.Errorf("ResolveType(%q) = %v, %q; model walk gives %v, %q", q, got, errText(gotErr), want, errText(wantErr))
				}
			}
			for _, c := range classifiers(m) {
				got, want := ix.DependenciesFrom(c), m.DependenciesFrom(c)
				if len(got) != len(want) {
					t.Errorf("DependenciesFrom(%s) = %d dependencies, model walk gives %d", c.QualifiedName(), len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("DependenciesFrom(%s)[%d] differs from the model walk", c.QualifiedName(), i)
					}
				}
			}
		})
	}
}

// addSharedNames adds to the model's first and last packages a class and
// an enumeration that share a simple name, and a class whose simple name
// is used in both of them. The first Twice gets three dependencies, in
// both packages, so their order counts.
func addSharedNames(m *uml.Model) {
	var pkgs []*uml.Package
	m.WalkPackages(func(p *uml.Package) bool { pkgs = append(pkgs, p); return true })
	first, last := pkgs[0], pkgs[len(pkgs)-1]
	last.AddEnumeration("Shared", "ENUM")
	first.AddClass("Shared", "CDT")
	twice := first.AddClass("Twice", "ACC")
	other := last.AddClass("Twice", "ABIE")
	only := last.AddEnumeration("OnlyEnum", "ENUM")
	last.AddDependency("basedOn", twice, other)
	first.AddDependency("trace", twice, only)
	last.AddDependency("basedOn", twice, nil)
}

// typeQueries returns every attribute type name of the model, every
// classifier's qualified and simple name, and names that cannot resolve.
func typeQueries(m *uml.Model) []string {
	qs := []string{"", "NoSuchType", "No::Such::Type", "::", "Shared", "Twice", "OnlyEnum"}
	m.WalkClasses(func(c *uml.Class) bool {
		for _, a := range c.Attributes {
			qs = append(qs, a.TypeName)
		}
		return true
	})
	for _, c := range classifiers(m) {
		qs = append(qs, c.ClassifierName(), c.QualifiedName())
	}
	return qs
}

func classifiers(m *uml.Model) []uml.Classifier {
	var out []uml.Classifier
	m.WalkPackages(func(p *uml.Package) bool {
		for _, c := range p.Classes {
			out = append(out, c)
		}
		for _, e := range p.Enumerations {
			out = append(out, e)
		}
		return true
	})
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
