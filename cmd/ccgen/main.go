// Command ccgen is the CLI equivalent of the paper's schema generator
// dialog (Figure 5): it reads a core components model from an XMI file,
// lets the user pick a library and — for DOC libraries — a root element,
// and writes the generated schema set to a folder. Status messages are
// printed during generation; an erroneous model aborts with an error
// message.
//
// The run is interruptible: SIGINT/SIGTERM and the -timeout flag cancel
// the generation context, which the plan walk and the emit loop check
// before each step. -h/-help print usage and exit 0.
//
// Usage:
//
//	ccgen -model model.xmi -library EB005-HoardingPermit -root HoardingPermit -out ./schemas [-target xsd|jsonschema|proto|rng|rdfs|go] [-profile profile.json] [-annotate] [-style shared|composite] [-timeout 30s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/validate"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ccgen", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "", "XMI model file (required)")
		library   = fs.String("library", "", "library to generate (required)")
		root      = fs.String("root", "", "root ABIE for DOCLibrary generation")
		out       = fs.String("out", "schemas", "output directory")
		annotate  = fs.Bool("annotate", false, "emit CCTS annotation blocks")
		style     = fs.String("style", "shared", "global-element rule: shared (paper example) or composite (paper prose)")
		quiet     = fs.Bool("quiet", false, "suppress status messages")
		skipCheck = fs.Bool("skip-validation", false, "generate even if the model has validation errors")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 disables the limit)")
		target    = fs.String("target", "xsd", "generation target: xsd, jsonschema, proto, rng, rdfs or go")
		profile   = fs.String("profile", "", "generation profile JSON file (datatype/namespace/import overrides, root preselection)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *library == "" {
		fs.Usage()
		return fmt.Errorf("-model and -library are required")
	}

	// The generation context: cancelled by SIGINT/SIGTERM and, when
	// -timeout is set, by the deadline. Plan and emit both observe it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	um, err := ccts.ImportUMLXMI(f)
	f.Close()
	var model *ccts.Model
	if err == nil {
		model, err = ccts.FromUML(um)
	}
	if err != nil {
		return fmt.Errorf("importing %s: %w", *modelPath, err)
	}

	// Resolve once; validation and generation share the index.
	index := ccts.ResolveModel(model)

	if !*skipCheck {
		// The profile's constraints run on the imported model, which
		// keeps what extraction drops (an enumeration in a CCLibrary).
		report := validate.ModelIndexed(model, index)
		report.Findings = append(report.Findings, validate.UML(um).Findings...)
		for _, finding := range report.Findings {
			fmt.Fprintln(os.Stderr, finding)
		}
		if report.HasErrors() {
			return fmt.Errorf("model has validation errors; fix them or pass -skip-validation")
		}
	}

	lib := index.FindLibrary(*library)
	if lib == nil {
		return fmt.Errorf("model has no library %q", *library)
	}

	opts := ccts.GenerateOptions{Annotate: *annotate, Index: index, Context: ctx}
	if *profile != "" {
		data, err := os.ReadFile(*profile)
		if err != nil {
			return err
		}
		opts.Profile, err = ccts.ParseGenProfile(data)
		if err != nil {
			return err
		}
	}
	switch *style {
	case "shared":
		opts.Style = ccts.GlobalShared
	case "composite":
		opts.Style = ccts.GlobalComposite
	default:
		return fmt.Errorf("unknown -style %q", *style)
	}
	if !*quiet {
		opts.Status = func(msg string) { fmt.Fprintln(os.Stderr, "..", msg) }
	}

	output, err := ccts.GenerateTargetDocument(lib, *root, *target, opts)
	if err != nil {
		return err
	}

	paths, err := ccts.WriteOutput(output, *out)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Println(p)
	}
	return nil
}
