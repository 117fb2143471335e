// Command pvcheck checks XML documents against a DTD (or XML Schema
// subset) for potential validity (the paper's Problem PV) and full
// validity, optionally synthesizing valid completions.
//
// Usage:
//
//	pvcheck (-dtd schema.dtd | -xsd schema.xsd) -root r [flags] doc.xml...
//	pvcheck batch (-dtd schema.dtd | -xsd schema.xsd) -root r [flags] dir...
//	pvcheck complete (-dtd schema.dtd | -xsd schema.xsd) -root r [-diff] [-in-place] [flags] dir...
//	pvcheck verify -receipt receipt.json [-root pvr1:...] [-id doc | -index N] [-content doc.xml]
//
// The verify form audits a verdict receipt (the ?receipt=1 response of
// pvserve's /batch and /complete routes, or the /jobs/{id}/receipt body)
// completely offline: no schema, engine or server is involved — only the
// Merkle inclusion proofs inside the file, checked against the receipt's
// root or a trusted -root override.
//
// The batch form fans a directory of documents out over the concurrent
// checking engine (see -workers). The complete form rewrites potentially
// valid documents into valid ones, printing the completed document, the
// insertion records (-diff), or rewriting files in place (-in-place).
//
// Exit status: 0 when every document is potentially valid, 1 when some
// document is not, 2 on usage or parse errors.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "batch":
			os.Exit(cli.Batch(args[1:], os.Stdout, os.Stderr))
		case "complete":
			os.Exit(cli.Complete(args[1:], os.Stdout, os.Stderr))
		case "verify":
			os.Exit(cli.Verify(args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(cli.PVCheck(args, os.Stdout, os.Stderr))
}
