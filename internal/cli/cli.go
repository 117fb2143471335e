// Package cli implements the command-line front ends (pvcheck, dtdinfo) as
// testable functions: each takes an argument vector and output writers and
// returns a process exit code. The cmd/ mains are thin wrappers.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/contentmodel"
	"repro/internal/dag"
	"repro/internal/dtd"
	"repro/internal/grammar"
	"repro/internal/reach"
)

// PVCheck runs the pvcheck command: check documents for potential validity
// and full validity against a DTD or XSD schema.
// Exit codes: 0 all potentially valid, 1 some document is not, 2 usage or
// input errors.
func PVCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dtdPath := fs.String("dtd", "", "path to the DTD file (this or -xsd required)")
	xsdPath := fs.String("xsd", "", "path to an XML Schema file (subset; alternative to -dtd)")
	root := fs.String("root", "", "root element (required)")
	streamAt := fs.Int64("stream-at", 64<<20, "stream files at least this many bytes large through the bounded-memory checker (0 always, <0 never)")
	completeFlag := fs.Bool("complete", false, "print a synthesized valid extension for potentially valid documents")
	ws := fs.Bool("ws", false, "ignore whitespace-only text nodes")
	anyRoot := fs.Bool("anyroot", false, "accept any declared element as document root")
	depth := fs.Int("depth", 0, "extension depth bound for PV-strong recursive DTDs (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*dtdPath == "") == (*xsdPath == "") || *root == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: pvcheck (-dtd schema.dtd | -xsd schema.xsd) -root elem [flags] doc.xml...")
		fs.PrintDefaults()
		return 2
	}

	opts := pv.Options{
		MaxDepth:             *depth,
		IgnoreWhitespaceText: *ws,
		AllowAnyRoot:         *anyRoot,
	}
	var schema *pv.Schema
	var err error
	if *dtdPath != "" {
		schema, err = pv.CompileDTDFile(*dtdPath, *root, opts)
	} else {
		var data []byte
		data, err = os.ReadFile(*xsdPath)
		if err == nil {
			schema, err = pv.CompileXSD(string(data), *root, opts)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "pvcheck: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "schema: %s\n", schema.Info())

	exit := 0
	fail := func(code int) {
		if exit < code {
			exit = code
		}
	}
	eng := pv.NewEngine(pv.EngineConfig{Workers: 1})
	defer eng.Close()
	for _, path := range fs.Args() {
		// A file past the -stream-at threshold takes the bounded-memory
		// reader path: the document is checked straight off the file in
		// O(depth + window) memory, never loaded whole — the only way
		// through for documents larger than RAM. The verdict is the same
		// as for a loaded file.
		streamed := streamSized(path, *streamAt)
		var data []byte
		var res pv.Result
		var err error
		if streamed {
			var f *os.File
			if f, err = os.Open(path); err == nil {
				r := eng.CheckReader(schema, path, f)
				f.Close()
				res = pv.Result{PotentiallyValid: r.PotentiallyValid, Valid: r.Valid, Detail: r.Detail}
				if r.Err != nil {
					err = fmt.Errorf("%s: %w", path, r.Err)
				}
			}
		} else if data, err = os.ReadFile(path); err == nil {
			if res, err = schema.CheckBytes(data); err != nil {
				err = fmt.Errorf("%s: %w", path, err)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "pvcheck: %v\n", err)
			fail(2)
			continue
		}
		switch {
		case res.Valid:
			fmt.Fprintf(stdout, "%s: valid\n", path)
		case res.PotentiallyValid:
			fmt.Fprintf(stdout, "%s: potentially valid (encoding incomplete)\n", path)
			if *completeFlag && !streamed {
				doc, err := pv.ParseDocument(string(data))
				if err == nil {
					if ext, inserted, err := schema.Complete(doc); err == nil {
						fmt.Fprintf(stdout, "%s: completion (+%d elements): %s\n", path, inserted, ext)
					} else {
						fmt.Fprintf(stderr, "pvcheck: %s: completion failed: %v\n", path, err)
					}
				}
			}
		default:
			fmt.Fprintf(stdout, "%s: NOT potentially valid: %s\n", path, res.Detail)
			fail(1)
		}
	}
	return exit
}

// streamSized reports whether path is at or above the auto-streaming
// threshold (negative disables; stat errors defer to the read path, which
// reports them properly).
func streamSized(path string, threshold int64) bool {
	if threshold < 0 {
		return false
	}
	info, err := os.Stat(path)
	return err == nil && info.Size() >= threshold
}

// DTDInfo runs the dtdinfo command: analyze a DTD with the paper's
// machinery. Exit codes: 0 ok, 2 usage or input errors.
func DTDInfo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtdinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dtdPath := fs.String("dtd", "", "path to the DTD file (required)")
	root := fs.String("root", "", "root element (default: first declared)")
	showDAG := fs.Bool("dag", false, "dump per-element DAGs (Figure 4)")
	showReach := fs.Bool("reach", false, "dump the reachability matrix (Definition 5)")
	showGrammar := fs.Bool("grammar", false, "dump the grammars G(T,r) and G'(T,r) (Section 3)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dtdPath == "" {
		fmt.Fprintln(stderr, "usage: dtdinfo -dtd schema.dtd [flags]")
		fs.PrintDefaults()
		return 2
	}
	data, err := os.ReadFile(*dtdPath)
	if err != nil {
		fmt.Fprintf(stderr, "dtdinfo: %v\n", err)
		return 2
	}
	d, err := dtd.Parse(string(data))
	if err != nil {
		fmt.Fprintf(stderr, "dtdinfo: %v\n", err)
		return 2
	}
	if *root == "" && len(d.Order) > 0 {
		*root = d.Order[0]
	}

	lt := reach.Build(d)
	fmt.Fprintf(stdout, "elements: %d   k (size measure): %d   class: %s\n",
		len(d.Order), d.Size(), lt.Class())
	fmt.Fprintf(stdout, "root: %s\n", *root)
	if rec := lt.RecursiveElements(); len(rec) > 0 {
		fmt.Fprintf(stdout, "recursive elements: %v\n", rec)
	}
	if strong := lt.PVStrongElements(); len(strong) > 0 {
		fmt.Fprintf(stdout, "PV-strong recursive elements: %v\n", strong)
	}
	fmt.Fprintf(stdout, "longest non-star-group chain: %d\n", lt.LongestStrongChain())

	if problems := d.Validate(); len(problems) > 0 {
		fmt.Fprintln(stdout, "\nlint:")
		for _, p := range problems {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
	}

	usable := lt.Usable(*root)
	var unusable []string
	for _, name := range d.Order {
		if !usable[name] {
			unusable = append(unusable, name)
		}
	}
	if len(unusable) > 0 {
		fmt.Fprintf(stdout, "\nunusable elements (Section 3.3): %v\n", unusable)
	}

	fmt.Fprintln(stdout, "\nper-element analysis:")
	for _, name := range d.Order {
		decl := d.Elements[name]
		fmt.Fprintf(stdout, "  %-12s %-10s class=%-20s pcdata=%-5v",
			name, decl.Category, lt.ElementClass(name), lt.ReachesPCDATA(name))
		if decl.Model != nil {
			norm := contentmodel.FlattenStarGroups(contentmodel.Normalize(decl.Model))
			fmt.Fprintf(stdout, " model=%s  normalized=%s", decl.Model, norm)
			if groups := contentmodel.StarGroups(contentmodel.Normalize(decl.Model)); len(groups) > 0 {
				fmt.Fprintf(stdout, "  star-groups:")
				for _, g := range groups {
					fmt.Fprintf(stdout, " {%v pcdata=%v}", g.Elements, g.HasPCDATA)
				}
			}
		}
		fmt.Fprintln(stdout)
	}

	if *showReach {
		fmt.Fprintln(stdout, "\nreachability (row ⇝ column):")
		fmt.Fprintf(stdout, "%12s", "")
		for _, to := range d.Order {
			fmt.Fprintf(stdout, " %6s", to)
		}
		fmt.Fprintf(stdout, " %6s\n", "PCDATA")
		for _, from := range d.Order {
			fmt.Fprintf(stdout, "%12s", from)
			for _, to := range d.Order {
				mark := "."
				if lt.Reachable(from, to) {
					mark = "x"
				}
				fmt.Fprintf(stdout, " %6s", mark)
			}
			mark := "."
			if lt.ReachesPCDATA(from) {
				mark = "x"
			}
			fmt.Fprintf(stdout, " %6s\n", mark)
		}
	}

	if *showDAG {
		fmt.Fprintln(stdout, "\nDAG model (Section 4.2):")
		g := dag.Build(d)
		for _, name := range d.Order {
			fmt.Fprint(stdout, g.Element(name).Dump())
		}
	}

	if *showGrammar {
		for _, relaxed := range []bool{false, true} {
			g, err := grammar.BuildECFG(d, *root, relaxed)
			if err != nil {
				fmt.Fprintf(stderr, "dtdinfo: %v\n", err)
				return 2
			}
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, g.String())
		}
	}
	return 0
}
