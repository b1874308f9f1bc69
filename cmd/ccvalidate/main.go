// Command ccvalidate runs the model validation engine over an XMI model
// — the paper's future-work feature "allowing to check the syntactical
// and semantical correctness of a core component model" — and optionally
// validates XML instance documents against a generated schema set.
//
// Usage:
//
//	ccvalidate -model model.xmi                    # validate the model
//	ccvalidate -schemas ./schemas message.xml ...  # validate messages
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/validate"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccvalidate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccvalidate", flag.ContinueOnError)
	var (
		modelPath  = fs.String("model", "", "XMI model file to validate")
		schemasDir = fs.String("schemas", "", "schema directory for instance validation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *modelPath != "":
		return validateModel(*modelPath, out)
	case *schemasDir != "":
		return validateInstances(*schemasDir, fs.Args(), out)
	default:
		fs.Usage()
		return fmt.Errorf("pass -model or -schemas")
	}
}

func validateModel(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// The profile's OCL constraints on the raw UML model, which keeps
	// what extraction drops (an enumeration in a CCLibrary, say), then —
	// if extraction is possible — the semantic rules on the typed model.
	um, err := ccts.ImportUMLXMI(f)
	if err != nil {
		return fmt.Errorf("importing %s: %w", path, err)
	}
	report := ccts.ValidateUML(um)
	model, err := ccts.FromUML(um)
	if err != nil {
		fmt.Fprintf(out, "extraction failed: %v\n", err)
	} else {
		report.Findings = append(report.Findings, validate.Model(model).Findings...)
	}

	if len(report.Findings) == 0 {
		fmt.Fprintln(out, "model is valid")
		return nil
	}
	for _, finding := range report.Findings {
		fmt.Fprintln(out, finding)
	}
	if report.HasErrors() || err != nil {
		return fmt.Errorf("%d finding(s)", len(report.Findings))
	}
	return nil
}

func validateInstances(dir string, files []string, out io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("no instance documents given")
	}
	set, err := ccts.LoadSchemaSet(dir)
	if err != nil {
		return err
	}
	failed := 0
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		res, err := set.Validate(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(out, "%s: %v\n", file, err)
			failed++
			continue
		}
		if res.Valid() {
			fmt.Fprintf(out, "%s: valid\n", file)
			continue
		}
		failed++
		for _, e := range res.Errors {
			fmt.Fprintf(out, "%s: %s\n", file, e)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d document(s) invalid", failed)
	}
	return nil
}
