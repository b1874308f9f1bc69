// Command ccrepo manages the persistent schema repository: the
// harmonisation workflow's publication step as a CLI. A publish runs
// the full pipeline — import, validate, generate — and stores the
// schema set as the next version of a subject, gated by the subject's
// compatibility policy; a rejected publish prints the machine-readable
// change list and exits 2.
//
// Usage:
//
//	ccrepo -dir DIR publish -subject S -library L [-root R] [-policy none|backward] [-style shared|composite] [-annotate] model.xmi
//	ccrepo -dir DIR check   -subject S -library L [-root R] model.xmi
//	ccrepo -dir DIR list    [SUBJECT]
//	ccrepo -dir DIR get     -subject S [-version N|latest] [-file NAME] [-out DIR]
//	ccrepo -dir DIR gc
//
// With -server URL the same commands (except gc) run against a ccserved
// instance over HTTP instead of a local directory, with automatic
// retries: exponential backoff with full jitter, honoring the server's
// Retry-After, bounded by -retries and -timeout. Exit codes: 1
// operational failure, 2 policy rejection, 3 service unreachable.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/client"
	"github.com/go-ccts/ccts/internal/diff"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/validate"
)

// errIncompatible marks a publish or check stopped by the compatibility
// policy; main maps it to exit code 2 so CI pipelines can distinguish
// "breaking revision" from operational failures.
var errIncompatible = errors.New("revision is incompatible with the published version")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		// Asking for usage is not a failure.
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrepo:", err)
		switch {
		case errors.Is(err, errIncompatible):
			os.Exit(2)
		case client.IsConnectError(err):
			// The service never answered: distinct exit code so wrappers
			// can alert "ccserved down" instead of "publish failed".
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo", flag.ContinueOnError)
	dir := fs.String("dir", "ccrepo-data", "repository directory")
	defPolicy := fs.String("default-policy", "backward", "policy for subjects created without an explicit -policy")
	var remote remoteOptions
	remote.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("usage: ccrepo [-dir DIR | -server URL] publish|check|list|get|gc ... (-h for details)")
	}
	if remote.server != "" {
		return runRemote(&remote, rest, out)
	}

	policy, err := repo.ParsePolicy(*defPolicy)
	if err != nil {
		return err
	}
	r, err := repo.Open(*dir, repo.Config{DefaultPolicy: policy})
	if err != nil {
		return err
	}
	defer r.Close()

	switch rest[0] {
	case "publish":
		return cmdPublish(r, rest[1:], out)
	case "check":
		return cmdCheck(r, rest[1:], out)
	case "list":
		return cmdList(r, rest[1:], out)
	case "get":
		return cmdGet(r, rest[1:], out)
	case "gc":
		res, err := r.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "reclaimed %d blob(s), %d byte(s)\n", res.Blobs, res.Bytes)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want publish, check, list, get or gc)", rest[0])
	}
}

// pipelineFlags are the generation options shared by publish and check.
type pipelineFlags struct {
	subject  string
	library  string
	root     string
	style    string
	annotate bool
}

func (p *pipelineFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.subject, "subject", "", "subject (pipeline name, e.g. the library's base URN)")
	fs.StringVar(&p.library, "library", "", "library to generate schemas for")
	fs.StringVar(&p.root, "root", "", "root ABIE for DOCLibrary generation")
	fs.StringVar(&p.style, "style", "shared", "ASBIE style: shared or composite")
	fs.BoolVar(&p.annotate, "annotate", false, "embed CCTS annotations in the schemas")
}

// jsonFinding is the diagnostics wire form (matches ccserved).
type jsonFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Element  string `json:"element,omitempty"`
	Message  string `json:"message"`
}

// jsonChange is the change-list wire form (matches ccserved).
type jsonChange struct {
	Kind            string   `json:"kind"`
	Element         string   `json:"element"`
	Details         []string `json:"details,omitempty"`
	Breaking        bool     `json:"breaking"`
	BreakingDetails []string `json:"breakingDetails,omitempty"`
}

func toJSONChanges(cs []diff.Change) []jsonChange {
	out := make([]jsonChange, 0, len(cs))
	for _, c := range cs {
		out = append(out, jsonChange{
			Kind: c.Kind, Element: c.Element, Details: c.Details,
			Breaking: c.Breaking, BreakingDetails: c.BreakingDetails,
		})
	}
	return out
}

// runPipeline imports, validates and generates: the publish path of the
// serving layer as a batch step.
func runPipeline(path string, p *pipelineFlags) (input []byte, model *ccts.Model, files []repo.File, diags []byte, rootElem string, err error) {
	input, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, nil, "", err
	}
	model, err = ccts.ImportXMI(bytes.NewReader(input))
	if err != nil {
		return nil, nil, nil, nil, "", fmt.Errorf("importing %s: %w", path, err)
	}
	index := ccts.ResolveModel(model)
	report := ccts.ValidateModelIndexed(model, index)
	if report.HasErrors() {
		for _, f := range report.Findings {
			fmt.Fprintf(os.Stderr, "ccrepo: %s\n", f)
		}
		return nil, nil, nil, nil, "", fmt.Errorf("model has %d validation finding(s)", len(report.Findings))
	}
	lib := index.FindLibrary(p.library)
	if lib == nil {
		return nil, nil, nil, nil, "", fmt.Errorf("model has no library %q", p.library)
	}

	opts := ccts.GenerateOptions{Annotate: p.annotate, Index: index}
	switch p.style {
	case "shared":
		opts.Style = ccts.GlobalShared
	case "composite":
		opts.Style = ccts.GlobalComposite
	default:
		return nil, nil, nil, nil, "", fmt.Errorf("unknown -style %q (want shared or composite)", p.style)
	}
	out, err := ccts.GenerateTargetDocument(lib, p.root, "xsd", opts)
	if err != nil {
		return nil, nil, nil, nil, "", err
	}
	for _, f := range out.Files {
		files = append(files, repo.File{Name: f.Name, Data: f.Data})
	}
	diags, err = diagnosticsJSON(out.RootElement, report.Findings)
	if err != nil {
		return nil, nil, nil, nil, "", err
	}
	return input, model, files, diags, out.RootElement, nil
}

func diagnosticsJSON(rootElement string, findings []validate.Finding) ([]byte, error) {
	doc := struct {
		RootElement string        `json:"rootElement,omitempty"`
		Findings    []jsonFinding `json:"findings"`
	}{RootElement: rootElement, Findings: make([]jsonFinding, 0, len(findings))}
	for _, f := range findings {
		doc.Findings = append(doc.Findings, jsonFinding{
			Rule: f.Rule, Severity: f.Severity.String(), Element: f.Element, Message: f.Message,
		})
	}
	return json.Marshal(doc)
}

func cmdPublish(r *repo.Repo, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo publish", flag.ContinueOnError)
	var p pipelineFlags
	p.register(fs)
	policyName := fs.String("policy", "", "set the subject's compatibility policy (none or backward); empty inherits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.subject == "" || p.library == "" || fs.NArg() != 1 {
		return errors.New("usage: ccrepo publish -subject S -library L [-root R] [-policy P] model.xmi")
	}
	var policy repo.Policy
	if *policyName != "" {
		parsed, err := repo.ParsePolicy(*policyName)
		if err != nil {
			return err
		}
		policy = parsed
	}

	input, model, files, diags, rootElem, err := runPipeline(fs.Arg(0), &p)
	if err != nil {
		return err
	}
	v, err := r.Publish(repo.PublishRequest{
		Subject:     p.subject,
		Input:       input,
		Fingerprint: fmt.Sprintf("v1|lib=%s|root=%s|style=%s|annotate=%t", p.library, p.root, p.style, p.annotate),
		RootElement: rootElem,
		Files:       files,
		Diagnostics: diags,
		Policy:      policy,
		Model:       model,
	})
	var ce *repo.CompatError
	if errors.As(err, &ce) {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Subject string       `json:"subject"`
			Against int          `json:"against"`
			Policy  repo.Policy  `json:"policy"`
			Changes []jsonChange `json:"changes"`
		}{Subject: ce.Subject, Against: ce.Against, Policy: ce.Policy, Changes: toJSONChanges(ce.Report.Breaking())})
		return fmt.Errorf("%w: %d breaking change(s) against version %d", errIncompatible, len(ce.Report.Breaking()), ce.Against)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "published %s version %d (%d file(s), input %s)\n", p.subject, v.Number, len(v.Files), v.InputSHA256[:12])
	return nil
}

func cmdCheck(r *repo.Repo, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo check", flag.ContinueOnError)
	var p pipelineFlags
	p.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.subject == "" || fs.NArg() != 1 {
		return errors.New("usage: ccrepo check -subject S model.xmi")
	}
	input, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := r.Check(p.subject, input, nil)
	if err != nil {
		return err
	}
	var changes []jsonChange
	if res.Report != nil {
		changes = toJSONChanges(res.Report.Changes)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Subject    string       `json:"subject"`
		Policy     repo.Policy  `json:"policy"`
		Against    int          `json:"against"`
		Compatible bool         `json:"compatible"`
		Changes    []jsonChange `json:"changes"`
	}{Subject: res.Subject, Policy: res.Policy, Against: res.Against, Compatible: res.Compatible, Changes: changes})
	if !res.Compatible {
		return errIncompatible
	}
	return nil
}

func cmdList(r *repo.Repo, args []string, out io.Writer) error {
	if len(args) > 1 {
		return errors.New("usage: ccrepo list [SUBJECT]")
	}
	if len(args) == 0 {
		subs := r.Subjects()
		for _, s := range subs {
			fmt.Fprintf(out, "%-50s %-9s %3d version(s) latest %d\n", s.Name, s.Policy, s.Versions, s.Latest)
		}
		fmt.Fprintf(out, "%d subject(s)\n", len(subs))
		return nil
	}
	vs, err := r.Versions(args[0])
	if err != nil {
		return err
	}
	for _, v := range vs {
		status := "live"
		if v.Deleted {
			status = "deleted"
		}
		fmt.Fprintf(out, "%3d  %-7s %2d file(s)  input %s\n", v.Number, status, len(v.Files), v.InputSHA256[:12])
	}
	return nil
}

func cmdGet(r *repo.Repo, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccrepo get", flag.ContinueOnError)
	subject := fs.String("subject", "", "subject to read")
	version := fs.String("version", "latest", "version number or 'latest'")
	file := fs.String("file", "", "write one named schema file to stdout")
	outDir := fs.String("out", "", "write every schema file (and diagnostics.json) into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *subject == "" || fs.NArg() != 0 {
		return errors.New("usage: ccrepo get -subject S [-version N|latest] [-file NAME] [-out DIR]")
	}
	number := 0
	if *version != "latest" {
		n, err := strconv.Atoi(*version)
		if err != nil || n <= 0 {
			return fmt.Errorf("-version must be a positive integer or 'latest', got %q", *version)
		}
		number = n
	}
	v, err := r.Version(*subject, number)
	if err != nil {
		return err
	}

	if *file != "" {
		data, err := r.VersionFile(*subject, v.Number, *file)
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for _, f := range v.Files {
			data, err := r.Blob(f.SHA256)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outDir, f.Name), data, 0o644); err != nil {
				return err
			}
		}
		if v.DiagnosticsSHA256 != "" {
			data, err := r.Blob(v.DiagnosticsSHA256)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outDir, "diagnostics.json"), data, 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "wrote %d file(s) to %s\n", len(v.Files), *outDir)
		return nil
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Subject string       `json:"subject"`
		Version repo.Version `json:"version"`
	}{Subject: *subject, Version: v})
}
