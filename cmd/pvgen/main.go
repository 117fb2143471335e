// Command pvgen generates workloads: random DTDs of a chosen recursion
// class, random valid documents for a DTD, and tag-stripped (potentially
// valid) variants — the corpora behind the benchmarks.
//
// Usage:
//
//	pvgen dtd   [-elements 10] [-class weak] [-seed 1]
//	pvgen doc   -dtd schema.dtd [-root r] [-depth 8] [-seed 1] [-strip 0.3]
//	pvgen doc   -dtd schema.dtd -stream -bytes 2G [-root r] [-depth 8] [-seed 1]
//
// -stream writes one valid document of at least -bytes bytes straight to
// stdout in O(depth) memory — star and plus groups repeat until the
// target is met — so multi-GB inputs for benchmarks and the streaming
// checker never have to exist as a tree (or fit in RAM). Sizes accept
// K/M/G suffixes.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/dtd"
	"repro/internal/gen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "dtd":
		genDTD(os.Args[2:])
	case "doc":
		genDoc(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pvgen dtd [-elements N] [-class none|weak|strong] [-seed S]
  pvgen doc -dtd schema.dtd [-root r] [-depth D] [-seed S] [-strip F]
  pvgen doc -dtd schema.dtd -stream -bytes N[K|M|G] [-root r] [-depth D] [-seed S]`)
	os.Exit(2)
}

func genDTD(args []string) {
	fs := flag.NewFlagSet("dtd", flag.ExitOnError)
	elements := fs.Int("elements", 10, "number of element types")
	class := fs.String("class", "none", "recursion class: none, weak, strong")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	var c gen.DTDClass
	switch *class {
	case "none":
		c = gen.ClassNonRecursive
	case "weak":
		c = gen.ClassWeak
	case "strong":
		c = gen.ClassStrong
	default:
		usage()
	}
	rng := rand.New(rand.NewSource(*seed))
	d := gen.RandDTD(rng, gen.DTDOptions{Elements: *elements, Class: c})
	fmt.Print(d.String())
	fmt.Fprintf(os.Stderr, "class: %s, k=%d, root: e0\n", gen.Classify(d), d.Size())
}

func genDoc(args []string) {
	fs := flag.NewFlagSet("doc", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "path to the DTD file (required)")
	root := fs.String("root", "", "root element (default: first declared)")
	depth := fs.Int("depth", 8, "maximum nesting depth")
	seed := fs.Int64("seed", 1, "random seed")
	strip := fs.Float64("strip", 0, "fraction of elements to strip (0 = emit the valid document)")
	stream := fs.Bool("stream", false, "stream one valid document of at least -bytes to stdout in O(depth) memory")
	size := fs.String("bytes", "", "minimum document size for -stream (K/M/G suffixes, e.g. 64M, 2G)")
	fs.Parse(args)

	if *dtdPath == "" {
		usage()
	}
	data, err := os.ReadFile(*dtdPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvgen: %v\n", err)
		os.Exit(2)
	}
	d, err := dtd.Parse(string(data))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvgen: %v\n", err)
		os.Exit(2)
	}
	if *root, err = docRoot(d, *root); err != nil {
		fmt.Fprintf(os.Stderr, "pvgen: %v\n", err)
		usage()
	}
	rng := rand.New(rand.NewSource(*seed))
	if *stream {
		if *strip > 0 {
			fmt.Fprintln(os.Stderr, "pvgen: -stream and -strip are mutually exclusive")
			os.Exit(2)
		}
		minBytes, err := parseSize(*size)
		if err != nil || minBytes <= 0 {
			fmt.Fprintf(os.Stderr, "pvgen: -stream needs -bytes N[K|M|G] (got %q)\n", *size)
			os.Exit(2)
		}
		out := bufio.NewWriterSize(os.Stdout, 256<<10)
		n, err := gen.StreamValid(out, rng, d, *root, gen.DocOptions{MaxDepth: *depth}, minBytes)
		if err == nil {
			err = out.Flush()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "streamed %d bytes (valid for root %s)\n", n, *root)
		if n < minBytes {
			fmt.Fprintf(os.Stderr, "pvgen: grammar admits no unbounded repetition from %s; stopped at %d of %d bytes\n", *root, n, minBytes)
			os.Exit(1)
		}
		return
	}
	doc := gen.GenValid(rng, d, *root, gen.DocOptions{MaxDepth: *depth})
	if *strip > 0 {
		removed := gen.Strip(rng, doc, *strip)
		fmt.Fprintf(os.Stderr, "stripped %d elements (result is potentially valid by Theorem 2)\n", removed)
	}
	fmt.Println(doc.String())
}

// docRoot resolves -root against the DTD: the first declared element when
// root is empty, else root itself, which must be declared. Both generators
// assume a declared root, so this runs before either.
func docRoot(d *dtd.DTD, root string) (string, error) {
	if len(d.Order) == 0 {
		return "", errors.New("the DTD declares no element")
	}
	if root == "" {
		return d.Order[0], nil
	}
	if d.Element(root) == nil {
		return "", fmt.Errorf("-root %q is not declared in the DTD", root)
	}
	return root, nil
}

// parseSize parses a byte count with an optional K, M or G suffix
// (powers of 1024).
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	shift := 0
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		shift, s = 10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		shift, s = 20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		shift, s = 30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n << shift, nil
}
