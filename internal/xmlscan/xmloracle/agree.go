package xmloracle

import (
	"errors"
	"io"
	"strings"

	"github.com/go-ccts/ccts/internal/limits"
)

// Outcome classifies a reader's result the way a reader and its oracle
// must agree on it: accepted, a limit violation naming its limit, a
// rejected DTD, an unexpected end of input, or any other error.
func Outcome(err error) string {
	var v *limits.Violation
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &v):
		return "limit " + v.Limit
	case errors.Is(err, limits.ErrDTD):
		return "dtd"
	case errors.Is(err, io.ErrUnexpectedEOF) || strings.Contains(err.Error(), "unexpected EOF"):
		return "eof"
	}
	return "error"
}

// ErrPos extracts the line:col a reader error carries.
func ErrPos(err error) (line, col int, ok bool) {
	var v *limits.Violation
	var pe *limits.PosError
	switch {
	case errors.As(err, &v):
		return v.Line, v.Col, true
	case errors.As(err, &pe):
		return pe.Line, pe.Col, true
	}
	return 0, 0, false
}

// EarlyCut reports whether got is the scanner's one allowed divergence
// from the oracle: a character-data run cut at MaxTokenLen as soon as
// it crossed the limit, where the oracle read the rest of the run first
// and failed further on (a syntax error, an unexpected EOF or
// MaxInputBytes later in the run, or a bad character anywhere in it,
// which it reports at the run's end).
func EarlyCut(got, want error) bool {
	var v *limits.Violation
	if want == nil || !errors.As(got, &v) || v.Limit != "MaxTokenLen" || !strings.HasPrefix(v.Detail, "character data") {
		return false
	}
	if Outcome(want) == "eof" {
		// The end of input lies past every position; the oracle's EOF
		// inside an element lenient mode skips carries none.
		return true
	}
	line, col, ok := ErrPos(want)
	return ok && (line > v.Line || line == v.Line && col >= v.Col)
}
