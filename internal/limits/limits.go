// Package limits is the policy of the XML ingestion boundary. The
// system's front door accepts XMI models, XSD schema sets and business
// messages produced by arbitrary external tools, so every document is
// read under configurable resource limits (input size, element depth,
// element and attribute counts, token length) and DTD/entity
// declarations are rejected outright. Violations surface as structured
// errors carrying the line:col position where the limit was crossed, so
// a validation engine can report them instead of a worker hanging or
// exhausting memory. internal/xmlscan, the one XML reader, enforces the
// policy for all three kinds of document.
package limits

import (
	"errors"
	"fmt"
)

// Limits bounds the resources one parsed document may consume. A zero
// or negative field disables that particular limit; the zero value
// disables all of them (use Default for production parsing).
// Configuration structs read a zero Limits as unset (see OrDefault).
type Limits struct {
	// MaxInputBytes caps the total bytes read from the input stream.
	MaxInputBytes int64
	// MaxDepth caps element nesting depth.
	MaxDepth int
	// MaxElements caps the total number of start elements.
	MaxElements int
	// MaxAttributes caps the attribute count of a single element.
	MaxAttributes int
	// MaxTokenLen caps the byte length of a single name, attribute
	// value or character-data run.
	MaxTokenLen int
}

// Default returns the production limits: generous enough for any real
// core components model, tight enough that a hostile document fails
// fast instead of exhausting a worker.
func Default() Limits {
	return Limits{
		MaxInputBytes: 64 << 20, // 64 MiB
		MaxDepth:      100,
		MaxElements:   1 << 20, // ~1M elements
		MaxAttributes: 256,
		MaxTokenLen:   1 << 20, // 1 MiB
	}
}

// Unlimited returns limits with every check disabled, for trusted
// in-process round trips. Its fields are negative, so OrDefault keeps it
// where it replaces the zero value.
func Unlimited() Limits {
	return Limits{MaxInputBytes: -1, MaxDepth: -1, MaxElements: -1, MaxAttributes: -1, MaxTokenLen: -1}
}

// OrDefault resolves a configured Limits: the zero value, an unset
// configuration field, means Default; anything else, Unlimited included,
// stands.
func (l Limits) OrDefault() Limits {
	if l == (Limits{}) {
		return Default()
	}
	return l
}

// ErrLimit is matched by errors.Is for every limit violation.
var ErrLimit = errors.New("input limit exceeded")

// ErrDTD is matched by errors.Is for rejected DOCTYPE/entity
// declarations (a standing XML-ingestion hazard; the NDR subset never
// uses them).
var ErrDTD = errors.New("DTD and entity declarations are not allowed")

// Violation is a structured limit-violation error with the input
// position at which the limit was crossed.
type Violation struct {
	// Limit names the exceeded limit field, e.g. "MaxDepth".
	Limit string
	// Detail describes the violation in document terms.
	Detail string
	// Line and Col locate the violation (1-based).
	Line, Col int
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("%d:%d: %s [%s]", v.Line, v.Col, v.Detail, v.Limit)
}

// Is reports ErrLimit so callers can match any violation.
func (v *Violation) Is(target error) bool { return target == ErrLimit }

// PosError decorates a parse error with the input position where the
// reader stood when it occurred.
type PosError struct {
	// Op is the reader reporting the error ("xmi", "xsd", "xsdval", or
	// "xml" for a rejected DTD).
	Op string
	// Line and Col locate the error (1-based).
	Line, Col int
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *PosError) Error() string {
	return fmt.Sprintf("%s: %d:%d: %v", e.Op, e.Line, e.Col, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PosError) Unwrap() error { return e.Err }
