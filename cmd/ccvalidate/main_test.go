package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
	"github.com/go-ccts/ccts/internal/uml"
)

func exportModel(t *testing.T, m *ccts.Model, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ccts.ExportXMI(m, f); err != nil {
		t.Fatal(err)
	}
}

// capture redirects a run() call's *os.File output to a temp file and
// returns what was written.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	runErr := run(args, tmp)
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestValidateCleanModel(t *testing.T) {
	dir := t.TempDir()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model.xmi")
	exportModel(t, f.Model, path)

	out, err := capture(t, []string{"-model", path})
	if err != nil {
		t.Fatalf("err=%v out=%s", err, out)
	}
	if !strings.Contains(out, "model is valid") {
		t.Errorf("output = %q", out)
	}
}

func TestValidateBrokenModel(t *testing.T) {
	dir := t.TempDir()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	f.Common.BaseURN = "" // LIB-1 + SEM-NS-1
	path := filepath.Join(dir, "broken.xmi")
	exportModel(t, f.Model, path)

	out, err := capture(t, []string{"-model", path})
	if err == nil {
		t.Error("broken model should fail")
	}
	// Each finding once: the OCL constraints run in one pass only.
	for _, rule := range []string{"LIB-1", "SEM-NS-1"} {
		if n := strings.Count(out, "["+rule+"]"); n != 1 {
			t.Errorf("%s reported %d time(s), want once: %q", rule, n, out)
		}
	}
}

// TestValidateDroppedEnumeration puts an enumeration into a CCLibrary.
// Extraction drops it without an error, so only the constraints on the
// imported model can report CCL-3.
func TestValidateDroppedEnumeration(t *testing.T) {
	dir := t.TempDir()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	um := ccts.ToUML(f.Model)
	var ccLib *uml.Package
	var walk func([]*uml.Package)
	walk = func(pkgs []*uml.Package) {
		for _, p := range pkgs {
			if p.Name == f.CCLib.Name {
				ccLib = p
			}
			walk(p.Packages)
		}
	}
	walk(um.Packages)
	if ccLib == nil {
		t.Fatalf("no package %q in the rendered model", f.CCLib.Name)
	}
	ccLib.AddEnumeration("Stray", profile.StENUM)
	path := filepath.Join(dir, "stray.xmi")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ccts.ExportUMLXMI(um, file); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, []string{"-model", path})
	if err == nil {
		t.Error("a CCLibrary with an enumeration should fail")
	}
	if strings.Contains(out, "extraction failed") {
		t.Fatalf("extraction should drop the enumeration, not fail: %q", out)
	}
	if n := strings.Count(out, "[CCL-3]"); n != 1 {
		t.Errorf("CCL-3 reported %d time(s), want once: %q", n, out)
	}
}

func TestValidateInstances(t *testing.T) {
	dir := t.TempDir()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccts.GenerateDocument(f.DOCLib, "HoardingPermit", ccts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	schemaDir := filepath.Join(dir, "schemas")
	if _, err := ccts.WriteSchemas(res, schemaDir); err != nil {
		t.Fatal(err)
	}

	good := filepath.Join(dir, "good.xml")
	if err := os.WriteFile(good, []byte(`<doc:HoardingPermit
	    xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"
	    xmlns:ll="urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates">
	  <doc:IncludedRegistration><ll:Type>local</ll:Type></doc:IncludedRegistration>
	</doc:HoardingPermit>`), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte(`<doc:HoardingPermit
	    xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"/>`), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, []string{"-schemas", schemaDir, good})
	if err != nil {
		t.Fatalf("valid doc failed: %v (%s)", err, out)
	}
	if !strings.Contains(out, "valid") {
		t.Errorf("output = %q", out)
	}

	out, err = capture(t, []string{"-schemas", schemaDir, good, bad})
	if err == nil {
		t.Error("bad doc should fail the run")
	}
	if !strings.Contains(out, "IncludedRegistration") {
		t.Errorf("output = %q", out)
	}
}

func TestValidateCLIErrors(t *testing.T) {
	if _, err := capture(t, []string{}); err == nil {
		t.Error("no flags should fail")
	}
	if _, err := capture(t, []string{"-model", "/nope.xmi"}); err == nil {
		t.Error("missing model file should fail")
	}
	if _, err := capture(t, []string{"-schemas", t.TempDir()}); err == nil {
		t.Error("no instance files should fail")
	}
	if _, err := capture(t, []string{"-schemas", t.TempDir(), "x.xml"}); err == nil {
		t.Error("empty schema dir should fail")
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "--help"} {
		t.Run(arg, func(t *testing.T) {
			if err := run([]string{arg}, io.Discard); !errors.Is(err, flag.ErrHelp) {
				t.Errorf("run(%q) = %v, want flag.ErrHelp (treated as success)", arg, err)
			}
		})
	}
}
