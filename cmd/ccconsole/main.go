// Command ccconsole is the core components management console the paper
// plans as future tool support: model statistics, where-used analysis,
// unused-component detection, bulk namespace updates and version bumps
// over XMI model files.
//
// Usage:
//
//	ccconsole stats model.xmi
//	ccconsole where-used model.xmi Code
//	ccconsole unused model.xmi
//	ccconsole update-ns model.xmi OLDPREFIX NEWPREFIX [-o out.xmi]
//	ccconsole bump-version model.xmi VERSION [-o out.xmi]
//	ccconsole sample model.xmi LIBRARY ROOT [minimal|full]
//	ccconsole plantuml model.xmi [-hide-datatypes] [LIBRARY ...]
//	ccconsole diff old.xmi new.xmi
//
// RELAX NG, RDF Schema and Go bindings are generation targets of ccgen:
// ccgen -target rng|rdfs|go.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	ccts "github.com/go-ccts/ccts"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccconsole:", err)
		os.Exit(1)
	}
}

const usage = `usage: ccconsole COMMAND model.xmi ...

  stats model.xmi
  where-used model.xmi NAME
  unused model.xmi
  update-ns model.xmi OLD NEW [-o out.xmi]
  bump-version model.xmi VERSION [-o out.xmi]
  sample model.xmi LIBRARY ROOT [minimal|full]
  plantuml model.xmi [-hide-datatypes] [LIBRARY ...]
  diff old.xmi new.xmi

RELAX NG, RDF Schema and Go bindings: ccgen -target rng|rdfs|go
`

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "-h", "--help", "help":
			fmt.Fprint(out, usage)
			return flag.ErrHelp
		}
	}
	if len(args) < 2 {
		return fmt.Errorf("usage: ccconsole stats|where-used|unused|update-ns|bump-version|sample|plantuml|diff model.xmi ...")
	}
	cmd, path := args[0], args[1]
	model, err := loadModel(path)
	if err != nil {
		return err
	}
	rest := args[2:]

	switch cmd {
	case "stats":
		s := ccts.CollectStats(model)
		fmt.Fprintf(out, "business libraries: %d\n", s.BusinessLibraries)
		fmt.Fprintf(out, "libraries:          %d\n", s.Libraries)
		fmt.Fprintf(out, "ACC/BCC/ASCC:       %d/%d/%d\n", s.ACCs, s.BCCs, s.ASCCs)
		fmt.Fprintf(out, "ABIE/BBIE/ASBIE:    %d/%d/%d\n", s.ABIEs, s.BBIEs, s.ASBIEs)
		fmt.Fprintf(out, "CDT/QDT/ENUM/PRIM:  %d/%d/%d/%d\n", s.CDTs, s.QDTs, s.ENUMs, s.PRIMs)
		return nil

	case "where-used":
		if len(rest) != 1 {
			return fmt.Errorf("usage: ccconsole where-used model.xmi NAME")
		}
		uses := ccts.WhereUsed(model, rest[0])
		for _, u := range uses {
			fmt.Fprintln(out, u)
		}
		fmt.Fprintf(out, "%d reference(s)\n", len(uses))
		return nil

	case "unused":
		unused := ccts.UnusedComponents(model)
		for _, u := range unused {
			fmt.Fprintln(out, u)
		}
		fmt.Fprintf(out, "%d unused component(s)\n", len(unused))
		return nil

	case "update-ns":
		target, rest2, err := outFlag(rest, 2)
		if err != nil {
			return fmt.Errorf("usage: ccconsole update-ns model.xmi OLD NEW [-o out.xmi]: %w", err)
		}
		n := ccts.UpdateNamespaces(model, rest2[0], rest2[1])
		fmt.Fprintf(out, "updated %d namespace(s)\n", n)
		return saveModel(model, target, path)

	case "bump-version":
		target, rest2, err := outFlag(rest, 1)
		if err != nil {
			return fmt.Errorf("usage: ccconsole bump-version model.xmi VERSION [-o out.xmi]: %w", err)
		}
		n := ccts.BumpVersions(model, rest2[0])
		fmt.Fprintf(out, "updated %d librar(ies)\n", n)
		return saveModel(model, target, path)

	case "diff":
		if len(rest) != 1 {
			return fmt.Errorf("usage: ccconsole diff old.xmi new.xmi")
		}
		newModel, err := loadModel(rest[0])
		if err != nil {
			return err
		}
		report := ccts.CompareModels(model, newModel)
		for _, c := range report.Changes {
			fmt.Fprintln(out, c)
		}
		fmt.Fprintf(out, "%d change(s)\n", len(report.Changes))
		return nil

	case "plantuml":
		opts := ccts.DiagramOptions{}
		for _, a := range rest {
			if a == "-hide-datatypes" {
				opts.HideDataTypes = true
				continue
			}
			opts.Libraries = append(opts.Libraries, a)
		}
		_, err = io.WriteString(out, ccts.RenderDiagram(model, opts))
		return err

	case "sample":
		if len(rest) < 2 {
			return fmt.Errorf("usage: ccconsole sample model.xmi LIBRARY ROOT [minimal|full]")
		}
		lib := model.FindLibrary(rest[0])
		if lib == nil {
			return fmt.Errorf("model has no library %q", rest[0])
		}
		mode := ccts.SampleMinimal
		if len(rest) == 3 {
			switch rest[2] {
			case "minimal":
			case "full":
				mode = ccts.SampleFull
			default:
				return fmt.Errorf("unknown sample mode %q", rest[2])
			}
		}
		res, err := ccts.GenerateDocument(lib, rest[1], ccts.GenerateOptions{})
		if err != nil {
			return err
		}
		set, err := ccts.CompileSchemas(res)
		if err != nil {
			return err
		}
		doc, err := ccts.GenerateSample(set, lib.BaseURN, res.RootElement, mode)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, doc)
		return err

	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// outFlag splits positional arguments from a trailing -o FILE pair.
func outFlag(args []string, positional int) (target string, rest []string, err error) {
	rest = args
	if len(rest) >= 2 && rest[len(rest)-2] == "-o" {
		target = rest[len(rest)-1]
		rest = rest[:len(rest)-2]
	}
	if len(rest) != positional {
		return "", nil, fmt.Errorf("expected %d argument(s), got %d", positional, len(rest))
	}
	return target, rest, nil
}

func loadModel(path string) (*ccts.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ccts.ImportXMI(f)
}

// saveModel writes the model back; with no -o target the operation is a
// dry run against the input file.
func saveModel(m *ccts.Model, target, source string) error {
	if target == "" {
		fmt.Fprintf(os.Stderr, "dry run (pass -o FILE to write; source %s unchanged)\n", source)
		return nil
	}
	f, err := os.Create(target)
	if err != nil {
		return err
	}
	defer f.Close()
	return ccts.ExportXMI(m, f)
}
