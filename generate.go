package ccts

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/gen"
	"github.com/go-ccts/ccts/internal/limits"
	"github.com/go-ccts/ccts/internal/xsd"
	"github.com/go-ccts/ccts/internal/xsdval"
)

// Schema generation (paper Section 4).
type (
	// GenerateOptions steer a generation run, mirroring the generator
	// dialog of the paper's Figure 5 (annotate flag, output layout,
	// status messages).
	GenerateOptions = gen.Options
	// GenerateResult holds the generated schema set.
	GenerateResult = gen.Result
	// ASBIEStyle selects the global-element rule for ASBIEs.
	ASBIEStyle = gen.ASBIEStyle

	// Schema is one generated XML schema document.
	Schema = xsd.Schema
)

// ASBIE generation styles; see the paper's Figure 7 discussion.
const (
	// GlobalShared declares shared-aggregation ASBIEs globally (the
	// paper's example behaviour). Default.
	GlobalShared = gen.GlobalShared
	// GlobalComposite declares composition ASBIEs globally (the paper's
	// Section 4.1 prose).
	GlobalComposite = gen.GlobalComposite
)

// ErrPRIMLibrary is returned when generation is requested for a
// PRIMLibrary (primitives map to XSD built-ins instead).
var ErrPRIMLibrary = gen.ErrPRIMLibrary

// GenerateDocument generates the typed XSD schema set of a library, the
// form CompileSchemas and instance validation need; GenerateTargetDocument
// returns serialized output for any target. A DOCLibrary run starts at
// its root ABIE: rootABIE, or else opts.Profile.Root. Other kinds ignore
// the root and generate every element of the library. The result holds
// the requested library's schema first, then every transitively imported
// one. opts.Context cancels the run.
func GenerateDocument(lib *Library, rootABIE string, opts GenerateOptions) (*GenerateResult, error) {
	return gen.GenerateDocument(lib, rootABIE, opts)
}

// SchemaFileName returns the file name the generator uses for a
// library's schema (e.g. "CommonAggregates_0.1.xsd").
func SchemaFileName(lib *Library) string { return core.SchemaFileName(lib) }

// WriteSchemas writes every generated schema into dir, creating it if
// needed, and returns the written file paths in generation order. The
// schemas are rendered in memory and written by WriteOutput, so a
// crashed or failed run never leaves a truncated .xsd behind.
func WriteSchemas(res *GenerateResult, dir string) ([]string, error) {
	out := &GenOutput{}
	for _, file := range res.Order {
		var buf bytes.Buffer
		if err := res.Schemas[file].Write(&buf); err != nil {
			return nil, fmt.Errorf("ccts: rendering %s: %w", file, err)
		}
		out.Files = append(out.Files, GenOutFile{Name: file, Data: buf.Bytes()})
	}
	return WriteOutput(out, dir)
}

// wrapSchemaWriter is the fault-injection seam of the write path: tests
// interpose a failing writer in front of the temp file to prove that a
// mid-write failure aborts cleanly, leaves no *.tmp* file behind and
// surfaces an error naming the schema. It is nil in production.
var wrapSchemaWriter func(io.Writer) io.Writer

// Instance validation (the schemas "are then used to validate XML
// messages exchanged during a business process").
type (
	// SchemaSet is a compiled group of schemas for instance validation.
	SchemaSet = xsdval.SchemaSet
	// ValidationResult reports instance validation findings.
	ValidationResult = xsdval.Result
)

// CompileSchemas compiles a generation result into an instance
// validator. The result's resolve-phase index is carried over so
// model-level lookups on the set reuse resolved names.
func CompileSchemas(res *GenerateResult) (*SchemaSet, error) {
	schemas := make([]*xsd.Schema, 0, len(res.Order))
	for _, file := range res.Order {
		schemas = append(schemas, res.Schemas[file])
	}
	set, err := xsdval.NewSchemaSet(schemas...)
	if err != nil {
		return nil, err
	}
	return set.WithIndex(res.Index), nil
}

// ParseSchema reads an XSD document (of the NDR subset) from r.
func ParseSchema(r io.Reader) (*Schema, error) { return xsd.Parse(r) }

// SchemaFileError reports a schema file that failed to parse while
// loading a directory, positioned at file:line:col.
type SchemaFileError struct {
	// File is the path of the offending .xsd file.
	File string
	// Line and Col locate the defect within the file (1-based; zero
	// when the parser could not attribute a position).
	Line, Col int
	// Err is the underlying parse error.
	Err error
}

// Error implements error.
func (e *SchemaFileError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("ccts: %s:%d:%d: %v", e.File, e.Line, e.Col, e.Err)
	}
	return fmt.Sprintf("ccts: %s: %v", e.File, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *SchemaFileError) Unwrap() error { return e.Err }

// LoadSchemaSet parses every .xsd file in dir into a SchemaSet. A file
// that fails to parse is reported as a *SchemaFileError naming it and
// carrying the line:col position of the defect.
func LoadSchemaSet(dir string) (*SchemaSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ccts: %w", err)
	}
	var schemas []*xsd.Schema
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".xsd" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("ccts: %w", err)
		}
		s, err := xsd.Parse(f)
		f.Close()
		if err != nil {
			fe := &SchemaFileError{File: path, Err: err}
			var pe *limits.PosError
			if errors.As(err, &pe) {
				fe.Line, fe.Col, fe.Err = pe.Line, pe.Col, pe.Err
			}
			return nil, fe
		}
		schemas = append(schemas, s)
	}
	if len(schemas) == 0 {
		return nil, fmt.Errorf("ccts: no .xsd files in %s", dir)
	}
	return xsdval.NewSchemaSet(schemas...)
}
