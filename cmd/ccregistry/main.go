// Command ccregistry maintains a core component registry — the
// registration and harmonisation workflow the paper says was missing
// ("the standardization and harmonization process of core component
// instances is based on spread sheets").
//
// Usage:
//
//	ccregistry -store registry.json register model.xmi
//	ccregistry -store registry.json search "address"
//	ccregistry -store registry.json export-csv harmonisation.csv
//	ccregistry -store registry.json import-csv harmonisation.csv
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/durable"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccregistry:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs_ := flag.NewFlagSet("ccregistry", flag.ContinueOnError)
	store := fs_.String("store", "registry.json", "registry store file")
	if err := fs_.Parse(args); err != nil {
		return err
	}
	rest := fs_.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: ccregistry [-store file] register|search|export-csv|import-csv ...")
	}

	reg := ccts.NewRegistry()
	if err := load(reg, *store); err != nil {
		return err
	}

	switch rest[0] {
	case "register":
		if len(rest) != 2 {
			return fmt.Errorf("usage: ccregistry register model.xmi")
		}
		f, err := os.Open(rest[1])
		if err != nil {
			return err
		}
		model, err := ccts.ImportXMI(f)
		f.Close()
		if err != nil {
			return err
		}
		added := reg.RegisterModel(model)
		fmt.Fprintf(out, "registered %d new entries (%d total)\n", added, reg.Len())
		return save(reg, *store)
	case "search":
		if len(rest) != 2 {
			return fmt.Errorf("usage: ccregistry search QUERY")
		}
		hits := reg.Search(rest[1])
		for _, e := range hits {
			fmt.Fprintf(out, "%-5s %-45s %s (%s %s)\n", e.Kind, e.DEN, e.Library, e.BusinessLibrary, e.Version)
		}
		fmt.Fprintf(out, "%d hit(s)\n", len(hits))
		return nil
	case "export-csv":
		if len(rest) != 2 {
			return fmt.Errorf("usage: ccregistry export-csv file.csv")
		}
		f, err := os.Create(rest[1])
		if err != nil {
			return err
		}
		defer f.Close()
		return reg.ExportCSV(f)
	case "import-csv":
		if len(rest) != 2 {
			return fmt.Errorf("usage: ccregistry import-csv file.csv")
		}
		f, err := os.Open(rest[1])
		if err != nil {
			return err
		}
		defer f.Close()
		if err := reg.ImportCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d entries after import\n", reg.Len())
		return save(reg, *store)
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func load(reg *ccts.Registry, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.LoadJSON(f)
}

// wrapStoreWriter is the fault-injection seam of save: tests interpose
// a failing writer in front of the temp file. It is nil in production.
var wrapStoreWriter func(io.Writer) io.Writer

// save replaces the store atomically: a failed or interrupted save
// leaves the previous store as it was.
func save(reg *ccts.Registry, path string) error {
	var buf bytes.Buffer
	if err := reg.SaveJSON(&buf); err != nil {
		return err
	}
	return durable.WriteFile(path, buf.Bytes(), wrapStoreWriter)
}
