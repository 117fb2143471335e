package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmltext"
)

// byteCorpus builds a mixed corpus (valid, stripped, corrupted, truncated)
// for one generated DTD, mirroring the engine's differential corpus.
func byteCorpus(rng *rand.Rand, d *dtd.DTD, root string) []string {
	var docs []string
	for i := 0; i < 25; i++ {
		docs = append(docs, gen.GenValid(rng, d, root, gen.DocOptions{MaxDepth: 8}).String())
	}
	for i := 0; i < 20; i++ {
		doc := gen.GenValid(rng, d, root, gen.DocOptions{MaxDepth: 8})
		gen.Strip(rng, doc, 0.3+0.5*rng.Float64())
		docs = append(docs, doc.String())
	}
	for i := 0; i < 15; i++ {
		doc := gen.GenValid(rng, d, root, gen.DocOptions{MaxDepth: 8})
		gen.Corrupt(rng, d, doc)
		docs = append(docs, doc.String())
	}
	for i := 0; i < 10; i++ {
		src := gen.GenValid(rng, d, root, gen.DocOptions{MaxDepth: 8}).String()
		docs = append(docs, src[:rng.Intn(len(src))])
	}
	return docs
}

// TestCheckStreamBytesMatchesString is the checker half of the byte-path
// differential acceptance criterion: RunBytes must return exactly the
// same verdict — including error text and violation typing — as
// CheckStream on the full generated corpus, across all three DTD
// recursion classes. Run under -race in CI.
func TestCheckStreamBytesMatchesString(t *testing.T) {
	classes := []struct {
		name string
		c    gen.DTDClass
	}{
		{"nonrecursive", gen.ClassNonRecursive},
		{"weak", gen.ClassWeak},
		{"strong", gen.ClassStrong},
	}
	total := 0
	for ci, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + ci)))
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 10, Class: cl.c})
			s, err := Compile(d, "e0", Options{})
			if err != nil {
				t.Fatalf("generated DTD does not compile: %v\n%s", err, d.String())
			}
			docs := byteCorpus(rng, d, "e0")
			total += len(docs)
			for i, xml := range docs {
				strErr := s.CheckStream(xml)
				byteErr := s.NewStreamChecker().RunBytes([]byte(xml))
				if !sameVerdict(strErr, byteErr) {
					t.Errorf("doc %d: verdict mismatch\n  string: %v\n  bytes:  %v\n  doc: %.200q",
						i, strErr, byteErr, xml)
				}
				// Lexer half of the differential: identical token streams.
				strToks, serr := xmltext.Tokenize(xml)
				byteToks, berr := xmltext.TokenizeBytes([]byte(xml))
				if (serr == nil) != (berr == nil) || !reflect.DeepEqual(strToks, byteToks) {
					t.Errorf("doc %d: token stream mismatch (%v vs %v)", i, serr, berr)
				}
			}
		})
	}
	if total < 200 {
		t.Fatalf("corpus too small: %d documents, want >= 200", total)
	}
}

// sameVerdict compares two checker results: same acceptance, same
// violation typing, same message.
func sameVerdict(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return IsViolation(a) == IsViolation(b) && a.Error() == b.Error()
}

// TestCheckStreamBytesFixtures covers the deterministic fixture documents
// used across the test suite, including explicit byte-path edge cases.
func TestCheckStreamBytesFixtures(t *testing.T) {
	schemas := fuzzSchemas(t)
	inputs := []string{
		`<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`,
		`<r><a><b>A quick brown</b><e></e><c> fox</c> dog</a></r>`,
		`<r><a><c>x</c><d></d></a></r>`,
		`<play><title>t</title><personae><persona>p</persona></personae></play>`,
		`<p>text <b>bold <i>both</i></b> tail</p>`,
		`<a><b></b><b></b></a>`,
		`<r>`, `</r>`, `<r></r><r></r>`, `<r><a></b></r>`, `x<r></r>`,
		`<r><!-- c --><?pi d?></r>`, `<r><![CDATA[<a>]]></r>`, ``,
		`<r>&lt;escaped&gt;</r>`,
		`<undeclared><r></r></undeclared>`,
		"  <r></r>  ",
	}
	for _, s := range schemas {
		for _, xml := range inputs {
			strErr := s.CheckStream(xml)
			byteErr := s.NewStreamChecker().RunBytes([]byte(xml))
			if !sameVerdict(strErr, byteErr) {
				t.Errorf("schema %s, doc %q:\n  string: %v\n  bytes:  %v", s.Root, xml, strErr, byteErr)
			}
		}
	}
}

// TestRunBytesReuseAcrossDocuments exercises the engine's pooling pattern:
// one checker driven over many byte documents with interleaved verdicts.
func TestRunBytesReuseAcrossDocuments(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.Figure1), "r", Options{})
	c := s.NewStreamChecker()
	docs := []struct {
		xml string
		ok  bool
	}{
		{`<r><a><c>x</c><d></d></a></r>`, true},
		{`<r><a><b>x</b><e></e><c>y</c></a></r>`, false},
		{`<r><a>`, false},
		{`<r><a><c>x</c><d></d></a></r>`, true},
	}
	for round := 0; round < 3; round++ {
		for i, d := range docs {
			err := c.RunBytes([]byte(d.xml))
			if (err == nil) != d.ok {
				t.Fatalf("round %d doc %d: got %v, want ok=%t", round, i, err, d.ok)
			}
		}
	}
}

// TestRunBytesSteadyStateAllocs pins the zero-copy promise at the checker
// level: after warm-up, a pooled checker re-checking an entity-free
// potentially valid document allocates nothing, whether the document is a
// byte slice or a string read in place through xmltext.View.
func TestRunBytesSteadyStateAllocs(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.Play), "play", Options{})
	var sb strings.Builder
	sb.WriteString("<play><title>t</title><personae>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<persona>someone</persona>")
	}
	sb.WriteString("</personae></play>")
	str := sb.String()
	src := []byte(str)
	c := s.NewStreamChecker()
	for _, in := range []struct {
		name string
		run  func() error
	}{
		{"bytes", func() error { return c.RunBytes(src) }},
		{"string", func() error { return c.Run(str) }},
	} {
		if err := in.run(); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := in.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s input: %.0f allocs per document, want 0", in.name, allocs)
		}
	}
}
