package cli

import (
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro"
	"repro/internal/mmapio"
)

// Batch runs the `pvcheck batch` subcommand: check a directory (or explicit
// file list) of XML documents against one schema, fanned out over the
// engine's worker pool. Exit codes: 0 every document is potentially valid,
// 1 some document is not (or is malformed), 2 usage or input errors.
func Batch(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcheck batch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dtdPath := fs.String("dtd", "", "path to the DTD file (this or -xsd required)")
	xsdPath := fs.String("xsd", "", "path to an XML Schema file (subset; alternative to -dtd)")
	root := fs.String("root", "", "root element (required)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	mmapAt := fs.Int64("mmap", mmapio.DefaultThreshold, "memory-map files at least this many bytes large (0 maps every non-empty file, <0 always reads)")
	streamAt := fs.Int64("stream-at", 64<<20, "check files at least this many bytes large through the bounded-memory reader path instead of loading them (<0 never)")
	cacheDir := fs.String("cache-dir", "", "disk-backed compiled-schema cache (skips recompiling across runs)")
	quiet := fs.Bool("q", false, "print only failures and the summary")
	ws := fs.Bool("ws", false, "ignore whitespace-only text nodes")
	anyRoot := fs.Bool("anyroot", false, "accept any declared element as document root")
	depth := fs.Int("depth", 0, "extension depth bound for PV-strong recursive DTDs (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*dtdPath == "") == (*xsdPath == "") || *root == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: pvcheck batch (-dtd schema.dtd | -xsd schema.xsd) -root elem [flags] dir-or-doc.xml...")
		fs.PrintDefaults()
		return 2
	}

	paths, err := collectXML(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "pvcheck batch: %v\n", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "pvcheck batch: no XML files found")
		return 2
	}

	// -cache-dir is a compiled-schema cache only. The one-shot CLI runs no
	// async jobs, so its jobs stay volatile: it never opens, locks or
	// recovers the directory's job write-ahead log, which a pvserve sharing
	// the directory may own.
	eng, err := pv.OpenEngine(pv.EngineConfig{Workers: *workers, SchemaCacheDir: *cacheDir, VolatileJobs: true})
	if err != nil {
		fmt.Fprintf(stderr, "pvcheck batch: %v\n", err)
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
		fmt.Fprintf(stderr, "pvcheck batch: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "schema: %s\n", schema.Info())

	docs := make([]pv.Doc, 0, len(paths))
	exit := 0
	mapped := 0
	var releases []func()
	var streamPaths []string
	for _, path := range paths {
		// Files past the streaming threshold never get slurped or mapped:
		// they take the bounded-memory reader path after the batch, so a
		// multi-GB outlier in the corpus cannot blow up peak RSS.
		if streamSized(path, *streamAt) {
			streamPaths = append(streamPaths, path)
			continue
		}
		// One read per file, checked on the zero-copy byte path: the bytes
		// are never round-tripped through a string. Files at or above the
		// mmap threshold are memory-mapped straight into the checker (the
		// engine never retains document bytes, so unmapping after the batch
		// is safe); smaller files — or a mapping failure — take a plain
		// read.
		data, release, didMap, err := readDoc(path, *mmapAt)
		if err != nil {
			fmt.Fprintf(stderr, "pvcheck batch: %v\n", err)
			exit = 2
			continue
		}
		if didMap {
			mapped++
		}
		releases = append(releases, release)
		docs = append(docs, pv.Doc{ID: path, Bytes: data})
	}

	results, stats := eng.CheckBatch(schema, docs)
	for _, release := range releases {
		release()
	}
	for _, r := range results {
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		code := printVerdict(stdout, r.ID, errMsg, r.Valid, r.PotentiallyValid, r.Detail, *quiet)
		if exit < code {
			exit = code
		}
	}
	code, streamStats := checkStreamedFiles(eng, schema, streamPaths, *quiet, stdout, stderr)
	if exit < code {
		exit = code
	}
	stats.Docs += streamStats.Docs
	stats.Bytes += streamStats.Bytes
	stats.PotentiallyValid += streamStats.PotentiallyValid
	stats.Valid += streamStats.Valid
	stats.Malformed += streamStats.Malformed
	perFileBytes := 0.0
	if stats.Docs > 0 {
		perFileBytes = float64(stats.Bytes) / float64(stats.Docs)
	}
	fmt.Fprintf(stderr, "checked %d documents (%d workers, %d mmapped, %d streamed): %d potentially valid, %d valid, %d malformed — %.0f docs/sec, %.2f MB/sec, %.0f bytes/sec (%.0f bytes/file avg)\n",
		stats.Docs, stats.Workers, mapped, len(streamPaths), stats.PotentiallyValid, stats.Valid, stats.Malformed,
		stats.DocsPerSec, stats.MBPerSec, stats.DocsPerSec*perFileBytes, perFileBytes)
	return exit
}

// checkStreamedFiles checks the over-threshold files one at a time through
// the engine's bounded-memory reader path and prints their verdicts (after
// the batch's, in sorted path order).
func checkStreamedFiles(eng *pv.Engine, schema *pv.Schema, paths []string, quiet bool, stdout, stderr io.Writer) (int, pv.BatchStats) {
	exit := 0
	var stats pv.BatchStats
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "pvcheck batch: %v\n", err)
			exit = 2
			continue
		}
		r := eng.CheckReader(schema, path, f)
		f.Close()
		stats.Docs++
		stats.Bytes += int64(r.Bytes)
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		switch {
		case errMsg != "":
			stats.Malformed++
		case r.Valid:
			stats.Valid++
			stats.PotentiallyValid++
		case r.PotentiallyValid:
			stats.PotentiallyValid++
		}
		code := printVerdict(stdout, r.ID, errMsg, r.Valid, r.PotentiallyValid, r.Detail, quiet)
		if exit < code {
			exit = code
		}
	}
	return exit, stats
}

// printVerdict renders one per-document verdict line and returns its exit
// code contribution (0 ok, 1 failure) — shared by the batch and the
// streamed files.
func printVerdict(stdout io.Writer, id, errMsg string, valid, pvalid bool, detail string, quiet bool) int {
	switch {
	case errMsg != "":
		fmt.Fprintf(stdout, "%s: malformed: %s\n", id, errMsg)
		return 1
	case valid:
		if !quiet {
			fmt.Fprintf(stdout, "%s: valid\n", id)
		}
		return 0
	case pvalid:
		if !quiet {
			fmt.Fprintf(stdout, "%s: potentially valid (encoding incomplete)\n", id)
		}
		return 0
	default:
		fmt.Fprintf(stdout, "%s: NOT potentially valid: %s\n", id, detail)
		return 1
	}
}

// readDoc loads one document for the byte path: memory-mapped at or above
// the threshold, plain-read below it. A zero threshold maps every
// non-empty file; a negative one disables mapping entirely.
func readDoc(path string, mmapAt int64) (data []byte, release func(), mapped bool, err error) {
	if mmapAt < 0 {
		data, err = os.ReadFile(path)
		return data, func() {}, false, err
	}
	if mmapAt == 0 {
		mmapAt = 1 // mmapio treats <=0 as "default threshold"; 0 here means "map everything"
	}
	return mmapio.ReadFile(path, mmapAt)
}

// collectXML expands the argument list: directories contribute their *.xml
// files (recursively), other paths are taken verbatim. The result is
// sorted, deduplicated.
func collectXML(args []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			add(arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d iofs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.EqualFold(filepath.Ext(p), ".xml") {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
