package pv

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
)

// treeVerdict is the tree oracle the stream checker answers to: dom.Parse,
// then core.Schema.CheckDocument (the paper's recognizer per element), then
// validator.Validate. Its Detail wording differs from the stream
// checker's; the verdict bits must not.
func treeVerdict(s *Schema, xml string) (Result, error) {
	doc, err := dom.Parse(xml)
	if err != nil {
		return Result{}, err
	}
	if v := s.eng.Core.CheckDocument(doc.Root); v != nil {
		return Result{Detail: v.Reason}, nil
	}
	return Result{PotentiallyValid: true, Valid: s.eng.Valid.Validate(doc.Root) == nil}, nil
}

// TestCheckBytesMatchesTreeOracle: the public string, byte and tree checks
// agree with each other on verdicts, details and lexical errors, and with
// the tree oracle on the verdict bits.
func TestCheckBytesMatchesTreeOracle(t *testing.T) {
	s := MustCompileDTD(dtd.Figure1, "r", Options{})
	for _, xml := range []string{
		`<r><a><c>x</c><d></d></a></r>`,
		`<r><a><b>x</b><e></e><c>y</c></a></r>`,
		`<r><a><b>quick</b><c>fox</c> dog<e/></a></r>`,
		`<r><a><b><d>x</d></b><c>y</c><d>z<e></e></d></a></r>`,
		`<r><a>`,
		`garbage<`,
	} {
		sr, serr := s.CheckString(xml)
		br, berr := s.CheckBytes([]byte(xml))
		if (serr == nil) != (berr == nil) {
			t.Fatalf("%q: error mismatch %v vs %v", xml, serr, berr)
		}
		if sr != br {
			t.Errorf("%q: result mismatch %+v vs %+v", xml, sr, br)
		}
		want, werr := treeVerdict(s, xml)
		if (serr == nil) != (werr == nil) {
			t.Fatalf("%q: error %v, tree oracle %v", xml, serr, werr)
		}
		if sr.PotentiallyValid != want.PotentiallyValid || sr.Valid != want.Valid || (sr.Detail == "") != (want.Detail == "") {
			t.Errorf("%q: %+v, tree oracle %+v", xml, sr, want)
		}
		if serr == nil {
			if dr := s.CheckDocument(MustParseDocument(xml)); dr != sr {
				t.Errorf("%q: CheckDocument %+v, CheckString %+v", xml, dr, sr)
			}
		}
		streamErr := s.CheckStream(xml)
		streamBytesErr := s.CheckStreamBytes([]byte(xml))
		if (streamErr == nil) != (streamBytesErr == nil) {
			t.Errorf("%q: stream mismatch %v vs %v", xml, streamErr, streamBytesErr)
		}
	}
}

// TestCheckStopsAtFirstViolation pins the one-pass contract on a document
// that is not potentially valid before it turns out malformed: the check
// stops at the violation, as /check and the streamed pvcheck path do, so
// the verdict comes back and the parse error later on never surfaces.
// The tree oracle parses first and reports the parse error instead.
func TestCheckStopsAtFirstViolation(t *testing.T) {
	s := MustCompileDTD(dtd.Figure1, "r", Options{})
	const xml = `<r><zzz></zzz>` // <r> is never closed
	for name, check := range map[string]func() (Result, error){
		"CheckString": func() (Result, error) { return s.CheckString(xml) },
		"CheckBytes":  func() (Result, error) { return s.CheckBytes([]byte(xml)) },
	} {
		res, err := check()
		if err != nil || res.PotentiallyValid || !strings.Contains(res.Detail, "<zzz>") {
			t.Errorf("%s: %+v, %v; want the undeclared <zzz> and no error", name, res, err)
		}
	}
	if _, err := treeVerdict(s, xml); err == nil {
		t.Error("tree oracle: want the parse error")
	}
}

// TestSchemaRefRouting: engine-compiled schemas expose refs; a batch with
// per-document refs routes across schemas in one call.
func TestSchemaRefRouting(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	fig, err := eng.CompileDTD(dtd.Figure1, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := eng.CompileDTD(dtd.WeakRecursive, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Ref() == "" || weak.Ref() == "" {
		t.Fatalf("engine schemas must carry refs: %q, %q", fig.Ref(), weak.Ref())
	}
	if MustCompileDTD(dtd.Figure1, "r", Options{}).Ref() != "" {
		t.Fatal("non-engine schema must not carry a ref")
	}
	results, stats := eng.CheckBatch(fig, []Doc{
		{ID: "fig", Bytes: []byte(`<r><a><c>x</c><d></d></a></r>`)},
		{ID: "weak", Bytes: []byte(`<p>text <b>bold</b></p>`), SchemaRef: weak.Ref()[:12]},
	})
	if stats.Docs != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, r := range results {
		if r.Err != nil || !r.PotentiallyValid {
			t.Errorf("%s: %+v", r.ID, r)
		}
	}

	// Self-routing with a nil default schema works for single checks and
	// batches alike (regression: this used to panic in Check).
	if r := eng.Check(nil, Doc{ID: "solo", Content: `<r><a><c>x</c><d></d></a></r>`, SchemaRef: fig.Ref()}); r.Err != nil || !r.PotentiallyValid {
		t.Errorf("nil-schema Check: %+v", r)
	}
	if r := eng.Check(nil, Doc{ID: "lost", Content: `<r></r>`}); r.Err == nil {
		t.Error("nil-schema Check without ref: want routing error")
	}
}

// TestCheckBytesLargeDoc sanity-checks the byte path on a larger document
// assembled from repeated fragments.
func TestCheckBytesLargeDoc(t *testing.T) {
	s := MustCompileDTD(dtd.Play, "play", Options{})
	var sb strings.Builder
	sb.WriteString(`<play><title>t</title><personae>`)
	for i := 0; i < 2000; i++ {
		sb.WriteString(`<persona>p</persona>`)
	}
	sb.WriteString(`</personae></play>`)
	if err := s.CheckStreamBytes([]byte(sb.String())); err != nil {
		t.Fatalf("large doc: %v", err)
	}
}
