package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
)

// TestCheckBatchBytesMatchesString is the engine half of the byte-path
// differential: the same corpus submitted once as Content and once as
// Bytes must produce identical verdicts, details and errors. Run under
// -race in CI.
func TestCheckBatchBytesMatchesString(t *testing.T) {
	e := New(Config{Workers: 8})
	rng := rand.New(rand.NewSource(99))
	d := gen.RandDTD(rng, gen.DTDOptions{Elements: 10, Class: gen.ClassWeak})
	schema, err := e.Compile(DTDSource, d.String(), "e0", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var asString, asBytes []Doc
	add := func(xml string) {
		id := fmt.Sprint(len(asString))
		asString = append(asString, Doc{ID: id, Content: xml})
		asBytes = append(asBytes, Doc{ID: id, Bytes: []byte(xml)})
	}
	for i := 0; i < 80; i++ {
		doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 7})
		switch i % 4 {
		case 1:
			gen.Strip(rng, doc, 0.5)
		case 2:
			gen.Corrupt(rng, d, doc)
		case 3:
			src := doc.String()
			add(src[:rng.Intn(len(src))])
			continue
		}
		add(doc.String())
	}
	rs, _ := e.CheckBatch(schema, asString)
	rb, stats := e.CheckBatch(schema, asBytes)
	if stats.Bytes == 0 {
		t.Fatal("byte batch reported zero bytes")
	}
	for i := range rs {
		s, b := rs[i], rb[i]
		if s.PotentiallyValid != b.PotentiallyValid || s.Valid != b.Valid ||
			s.Detail != b.Detail || (s.Err == nil) != (b.Err == nil) || s.Bytes != b.Bytes {
			t.Errorf("doc %s: string %+v != bytes %+v", s.ID, s, b)
		}
		if s.Err != nil && s.Err.Error() != b.Err.Error() {
			t.Errorf("doc %s: error text: %v != %v", s.ID, s.Err, b.Err)
		}
	}
}

// TestCheckBatchMultiSchema routes one mixed batch across three cached
// schemas by SchemaRef, with a default schema for unrouted documents.
func TestCheckBatchMultiSchema(t *testing.T) {
	e := New(Config{Workers: 4})
	fig, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	play, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := e.Compile(DTDSource, dtd.WeakRecursive, "p", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Ref == "" || play.Ref == "" || weak.Ref == "" {
		t.Fatalf("registry schemas missing refs: %q %q %q", fig.Ref, play.Ref, weak.Ref)
	}

	figDoc := `<r><a><c>x</c><d></d></a></r>`
	playDoc := `<play><title>t</title><personae><persona>p</persona></personae>` +
		`<act><title>a</title><scene><title>s</title><speech><speaker>x</speaker><line>l</line></speech></scene></act></play>`
	weakDoc := `<p>text <b>bold</b></p>`
	docs := []Doc{
		{ID: "fig-default", Content: figDoc},                           // default schema
		{ID: "play", Content: playDoc, SchemaRef: play.Ref},            // full ref
		{ID: "weak", Bytes: []byte(weakDoc), SchemaRef: weak.Ref[:12]}, // prefix ref + bytes
		{ID: "cross", Content: playDoc, SchemaRef: fig.Ref},            // wrong schema: not PV
		{ID: "unknown", Content: figDoc, SchemaRef: strings.Repeat("f", 16)},
		{ID: "short", Content: figDoc, SchemaRef: "ab"},
	}
	results, stats := e.CheckBatch(fig, docs)
	if stats.Docs != len(docs) {
		t.Fatalf("stats: %+v", stats)
	}
	// The two unroutable documents are routing errors, not malformed docs.
	if stats.RoutingErrors != 2 || stats.Malformed != 0 {
		t.Errorf("routing stats: %+v", stats)
	}
	byID := map[string]Result{}
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, id := range []string{"fig-default", "play", "weak"} {
		if r := byID[id]; r.Err != nil || !r.PotentiallyValid || !r.Valid {
			t.Errorf("%s: want valid, got %+v", id, r)
		}
	}
	if r := byID["cross"]; r.Err != nil || r.PotentiallyValid {
		t.Errorf("cross-schema doc: want not-PV verdict, got %+v", r)
	}
	if r := byID["unknown"]; r.Err == nil || !strings.Contains(r.Err.Error(), "unknown schemaRef") {
		t.Errorf("unknown ref: want unknown-schemaRef error, got %+v", r)
	}
	if r := byID["short"]; r.Err == nil || !strings.Contains(r.Err.Error(), "too short") {
		t.Errorf("short ref: want too-short error, got %+v", r)
	}
}

// TestCheckBatchNoDefaultSchema: a batch with a nil default works as long
// as every document routes itself; unrouted documents get a typed error.
func TestCheckBatchNoDefaultSchema(t *testing.T) {
	e := New(Config{Workers: 2})
	fig, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := []Doc{
		{ID: "routed", Content: `<r><a><c>x</c><d></d></a></r>`, SchemaRef: fig.Ref},
		{ID: "unrouted", Content: `<r></r>`},
	}
	results, _ := e.CheckBatch(nil, docs)
	if r := results[0]; r.Err != nil || !r.PotentiallyValid {
		t.Errorf("routed: %+v", r)
	}
	if r := results[1]; r.Err == nil || !strings.Contains(r.Err.Error(), "no schemaRef") {
		t.Errorf("unrouted: want no-schema error, got %+v", r)
	}
}

// TestResolveRef covers the registry's ref lookup directly: prefix match,
// ambiguity, negative-cache refs, and LRU touching.
func TestResolveRef(t *testing.T) {
	r := NewRegistry(8)
	s1, err := r.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same source, different root: distinct key, distinct ref.
	s2, err := r.Compile(DTDSource, dtd.Figure1, "a", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Ref == s2.Ref {
		t.Fatalf("same-source schemas share a ref: %s", s1.Ref)
	}
	got, err := r.ResolveRef(s1.Ref[:RefMinLen])
	if err != nil || got != s1 {
		t.Fatalf("prefix resolve: %v, %v", got, err)
	}
	if got, err := r.ResolveRef(strings.ToUpper(s2.Ref[:12])); err != nil || got != s2 {
		t.Fatalf("case-insensitive resolve: %v, %v", got, err)
	}
	if _, err := r.ResolveRef(strings.Repeat("0", RefMinLen)); err == nil {
		t.Fatal("expected unknown-ref error")
	}
	// A schema that failed to compile is not resolvable.
	if _, cerr := r.Compile(DTDSource, "<!ELEMENT", "x", CompileOptions{}); cerr == nil {
		t.Fatal("bad DTD compiled")
	}
}

// Read-only inputs: string constants live in the binary's read-only data,
// so a write through xmltext.View would fault the test binary.
const (
	roValid      = `<play><title>T &amp; co</title><personae><persona role="a&lt;b">P</persona></personae><act><title>A</title><scene><title>S</title><stagedir>enter</stagedir></scene></act></play>`
	roStripped   = `<play><title>T</title><persona>P &#65;</persona><act><scene><speech><speaker>X</speaker><line>l</line></speech></scene></act></play>`
	roUndeclared = `<play><title>T</title><bogus/></play>`
	roMalformed  = `<play><title>T</play>`
)

// TestDocumentInputIsReadOnly runs check, receipt digest, parse and
// completion over documents held in read-only memory, then over byte
// copies that must come back unchanged: nothing on the input path writes
// to a document. The expected verdicts make sure every path ran: the
// strict fast path, the tree pass, a violation, a lexical error, and a
// completion with insertions.
func TestDocumentInputIsReadOnly(t *testing.T) {
	e := New(Config{Workers: 2})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{roValid, roStripped, roUndeclared, roMalformed}
	run := func(label string, docs []Doc) {
		results, _ := e.CheckBatch(s, docs)
		if r := results[0]; !r.Valid {
			t.Errorf("%s: valid document: %+v", label, r)
		}
		if r := results[1]; !r.PotentiallyValid || r.Valid {
			t.Errorf("%s: stripped document should be potentially valid only: %+v", label, r)
		}
		if r := results[2]; r.PotentiallyValid || r.Detail == "" {
			t.Errorf("%s: undeclared element should be a violation: %+v", label, r)
		}
		if r := results[3]; r.Err == nil {
			t.Errorf("%s: malformed document should be an error: %+v", label, r)
		}
		if _, _, rec, err := e.CheckBatchReceipt(s, docs); err != nil || rec == nil {
			t.Errorf("%s: receipt: %v", label, err)
		}
		completed, _ := e.CompleteBatch(s, docs, true)
		if c := completed[1]; !c.Completed || c.Inserted == 0 {
			t.Errorf("%s: stripped document should complete with insertions: %+v", label, c)
		}
		for i := range docs {
			_, _ = dom.ParseBytes(docs[i].data())
		}
	}

	lits := make([]Doc, len(inputs))
	for i, src := range inputs {
		lits[i] = Doc{ID: fmt.Sprint(i), Content: src}
		_, _ = dom.Parse(src)
	}
	run("string constants", lits)

	copies := make([]Doc, len(inputs))
	for i, src := range inputs {
		copies[i] = Doc{ID: fmt.Sprint(i), Bytes: []byte(src)}
	}
	run("byte copies", copies)
	for i, d := range copies {
		if string(d.Bytes) != inputs[i] {
			t.Errorf("document %d was modified: %q became %q", i, inputs[i], d.Bytes)
		}
	}
}
