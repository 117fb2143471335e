package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

// Complete runs the `pvcheck complete` subcommand: complete a directory
// (or explicit file list) of potentially valid XML documents into valid
// ones, fanned out over the engine's worker pool.
//
// Output modes: by default each completed document is printed to stdout
// (summaries and failure diagnostics go to stderr, so stdout can be
// redirected safely); -diff prints the insertion records
// (path/index/name) instead of the document; -in-place rewrites each
// input file with its completion. -diff and -in-place compose.
//
// Exit codes: 0 every document completed (or was already valid), 1 some
// document is malformed or not potentially valid, 2 usage or input errors.
func Complete(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcheck complete", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dtdPath := fs.String("dtd", "", "path to the DTD file (this or -xsd required)")
	xsdPath := fs.String("xsd", "", "path to an XML Schema file (subset; alternative to -dtd)")
	root := fs.String("root", "", "root element (required)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "disk-backed compiled-schema cache (skips recompiling across runs)")
	diffMode := fs.Bool("diff", false, "print insertion records instead of the completed document")
	inPlace := fs.Bool("in-place", false, "rewrite each input file with its completion")
	ws := fs.Bool("ws", false, "ignore whitespace-only text nodes")
	anyRoot := fs.Bool("anyroot", false, "accept any declared element as document root")
	depth := fs.Int("depth", 0, "extension depth bound for PV-strong recursive DTDs (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*dtdPath == "") == (*xsdPath == "") || *root == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: pvcheck complete (-dtd schema.dtd | -xsd schema.xsd) -root elem [-diff] [-in-place] [flags] dir-or-doc.xml...")
		fs.PrintDefaults()
		return 2
	}

	paths, err := collectXML(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "pvcheck complete: %v\n", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "pvcheck complete: no XML files found")
		return 2
	}

	// Volatile jobs, as in Batch: -cache-dir never touches the job WAL.
	eng, err := pv.OpenEngine(pv.EngineConfig{Workers: *workers, SchemaCacheDir: *cacheDir, VolatileJobs: true})
	if err != nil {
		fmt.Fprintf(stderr, "pvcheck complete: %v\n", err)
		return 2
	}
	defer eng.Close()
	opts := pv.Options{MaxDepth: *depth, IgnoreWhitespaceText: *ws, AllowAnyRoot: *anyRoot}
	var schema *pv.Schema
	if *dtdPath != "" {
		var data []byte
		if data, err = os.ReadFile(*dtdPath); err == nil {
			schema, err = eng.CompileDTD(string(data), *root, opts)
		}
	} else {
		var data []byte
		if data, err = os.ReadFile(*xsdPath); err == nil {
			schema, err = eng.CompileXSD(string(data), *root, opts)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "pvcheck complete: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "schema: %s\n", schema.Info())

	docs := make([]pv.Doc, 0, len(paths))
	exit := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "pvcheck complete: %v\n", err)
			exit = 2
			continue
		}
		docs = append(docs, pv.Doc{ID: path, Bytes: data})
	}

	results, stats := eng.CompleteBatch(schema, docs, *diffMode)
	for _, r := range results {
		// Failure diagnostics go to stderr like the summaries: stdout
		// carries only completed documents (or diff records), so
		// redirecting it stays safe even when some input fails.
		switch {
		case r.Err != nil:
			fmt.Fprintf(stderr, "%s: cannot complete: %v\n", r.ID, r.Err)
			if exit < 1 {
				exit = 1
			}
			continue
		case !r.Completed:
			fmt.Fprintf(stderr, "%s: NOT potentially valid: %s\n", r.ID, r.Detail)
			if exit < 1 {
				exit = 1
			}
			continue
		case r.AlreadyValid:
			fmt.Fprintf(stderr, "%s: already valid\n", r.ID)
		default:
			fmt.Fprintf(stderr, "%s: completed (+%d elements)\n", r.ID, r.Inserted)
		}
		if *diffMode {
			if r.Inserted == 0 {
				fmt.Fprintf(stdout, "%s: already valid (0 insertions)\n", r.ID)
			} else {
				for _, ins := range r.Insertions {
					fmt.Fprintf(stdout, "%s: %s\n", r.ID, ins)
				}
			}
		}
		if *inPlace {
			if r.Inserted > 0 {
				if err := os.WriteFile(r.ID, []byte(r.Output), 0o644); err != nil {
					fmt.Fprintf(stderr, "pvcheck complete: %v\n", err)
					exit = 2
				}
			}
		} else if !*diffMode {
			fmt.Fprintln(stdout, r.Output)
		}
	}
	fmt.Fprintf(stderr, "completed %d documents (%d workers): %d completable, %d already valid, %d inserted elements, %d malformed — %.0f docs/sec\n",
		stats.Docs, stats.Workers, stats.PotentiallyValid, stats.Valid, stats.Inserted,
		stats.Malformed, stats.DocsPerSec)
	return exit
}
