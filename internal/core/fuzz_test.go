package core

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
)

// fuzzSchemas compiles one schema per recursion class (plus the paper's
// Figure 1) for the stream/tree differential fuzz target.
func fuzzSchemas(tb testing.TB) []*Schema {
	tb.Helper()
	return []*Schema{
		MustCompile(dtd.MustParse(dtd.Figure1), "r", Options{}),
		MustCompile(dtd.MustParse(dtd.Play), "play", Options{}),
		MustCompile(dtd.MustParse(dtd.WeakRecursive), "p", Options{}),
		MustCompile(dtd.MustParse(dtd.T2), "a", Options{}),
	}
}

// FuzzCheckStream asserts that on arbitrary input the streaming checker
// never panics, rejects everything the tree parser rejects, and agrees
// with CheckDocument on the potential-validity verdict of everything that
// parses — the equivalence the concurrent engine's single-pass fast path
// depends on.
func FuzzCheckStream(f *testing.F) {
	for _, seed := range []string{
		`<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`,
		`<r><a><b>A quick brown</b><e></e><c> fox</c> dog</a></r>`,
		`<r><a><c>x</c><d></d></a></r>`,
		`<play><title>t</title><personae><persona>p</persona></personae></play>`,
		`<p>text <b>bold <i>both</i></b> tail</p>`,
		`<a><b></b><b></b></a>`,
		`<r>`, `</r>`, `<r></r><r></r>`, `<r><a></b></r>`, `x<r></r>`,
		`<r><!-- c --><?pi d?></r>`, `<r><![CDATA[<a>]]></r>`, ``,
	} {
		f.Add(seed)
	}
	schemas := fuzzSchemas(f)
	f.Fuzz(func(t *testing.T, xml string) {
		for _, s := range schemas {
			streamErr := s.CheckStream(xml)
			// The zero-copy byte path must agree with the string path on
			// acceptance, violation typing and message text.
			if byteErr := s.NewStreamChecker().RunBytes([]byte(xml)); !sameVerdict(streamErr, byteErr) {
				t.Fatalf("schema %s: string/byte stream paths disagree on %q\n  string: %v\n  bytes:  %v",
					s.Root, xml, streamErr, byteErr)
			}
			doc, parseErr := dom.Parse(xml)
			if parseErr != nil {
				if streamErr == nil {
					t.Fatalf("schema %s: stream accepted input the tree parser rejects (%v): %q",
						s.Root, parseErr, xml)
				}
				continue
			}
			treeViolation := s.CheckDocument(doc.Root)
			if (treeViolation == nil) != (streamErr == nil) {
				t.Fatalf("schema %s: stream/tree disagree on %q\n  stream: %v\n  tree:   %v",
					s.Root, xml, streamErr, treeViolation)
			}
			// Stream failures on parseable input must be typed as
			// potential-validity violations, never as well-formedness errors.
			if streamErr != nil && !IsViolation(streamErr) {
				t.Fatalf("schema %s: untyped stream violation on well-formed input %q: %v",
					s.Root, xml, streamErr)
			}
		}
	})
}
