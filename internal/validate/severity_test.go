package validate

import (
	"encoding/json"
	"testing"
)

// TestSeverityText: a severity travels as the name String gives it, and
// decoding refuses any other name, also inside a finding.
func TestSeverityText(t *testing.T) {
	for _, sev := range []Severity{Error, Warning} {
		text, err := sev.MarshalText()
		if err != nil || string(text) != sev.String() {
			t.Errorf("%v.MarshalText() = %q, %v", sev, text, err)
		}
		var back Severity
		if err := back.UnmarshalText(text); err != nil || back != sev {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, sev)
		}
	}
	for _, name := range []string{"", "Error", "fatal", "0"} {
		var s Severity
		if err := s.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted an unknown severity", name)
		}
	}
	var f Finding
	if err := json.Unmarshal([]byte(`{"rule":"R-1","severity":"notice","message":"m"}`), &f); err == nil {
		t.Errorf("a finding with severity notice decoded as %+v", f)
	}
	data, err := json.Marshal(Finding{Rule: "R-1", Severity: Warning, Message: "m", Line: 3})
	if want := `{"rule":"R-1","severity":"warning","message":"m","line":3}`; err != nil || string(data) != want {
		t.Errorf("finding encodes as %s, %v; want %s", data, err, want)
	}
}
