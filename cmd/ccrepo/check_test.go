package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
	"github.com/go-ccts/ccts/internal/profile"
)

// TestCheckRefusesWhatPublishRefuses: check runs publish's model check,
// so a model with an enumeration in its CCLibrary fails naming CCL-3 in
// both modes, for a new subject and for a published one.
func TestCheckRefusesWhatPublishRefuses(t *testing.T) {
	dir := t.TempDir()
	valid := writeXMI(t, dir, "model.xmi", nil)
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	um := ccts.ToUML(f.Model)
	um.FindPackage(f.CCLib.Name).AddEnumeration("Stray", profile.StENUM)
	var buf bytes.Buffer
	if err := ccts.ExportUMLXMI(um, &buf); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "stray.xmi")
	if err := os.WriteFile(stray, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for mode, global := range map[string][]string{
		"-dir":    {"-dir", filepath.Join(dir, "repo")},
		"-server": {"-server", startServed(t)},
	} {
		args := func(rest ...string) []string { return append(append([]string(nil), global...), rest...) }
		for _, published := range []bool{false, true} {
			if published {
				if err := run(args("publish", "-subject", testSubject,
					"-library", "EB005-HoardingPermit", "-root", "HoardingPermit", valid), io.Discard); err != nil {
					t.Fatalf("%s publish: %v", mode, err)
				}
			}
			err := run(args("check", "-subject", testSubject, stray), io.Discard)
			if err == nil || !strings.Contains(err.Error(), "\nerror [CCL-3] ") {
				t.Errorf("%s check (published %t) = %v, want an error naming CCL-3", mode, published, err)
			}
		}
	}
}
