package pv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCompletePublicAPI(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	doc := MustParseDocument(exampleS)
	ext, inserted, err := schema.Complete(doc)
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 2 {
		t.Errorf("inserted = %d, Figure 3 needs 2", inserted)
	}
	if err := schema.Validate(ext); err != nil {
		t.Errorf("completion must validate: %v", err)
	}
	if ext.Content() != doc.Content() {
		t.Error("completion changed character data")
	}
	// The original document is untouched.
	if doc.String() != exampleS {
		t.Error("Complete mutated its input")
	}
	// Completing w must fail.
	if _, _, err := schema.Complete(MustParseDocument(exampleW)); err == nil {
		t.Error("completing a non-PV document must fail")
	}
}

func TestCompleteXSDSchema(t *testing.T) {
	// The XSD path supports the same operations end to end.
	src := `
<schema>
  <element name="book">
    <complexType>
      <sequence>
        <element name="title" type="string"/>
        <element name="chapter" minOccurs="1" maxOccurs="unbounded">
          <complexType mixed="true">
            <sequence>
              <element name="note" type="string" minOccurs="0" maxOccurs="unbounded"/>
            </sequence>
          </complexType>
        </element>
      </sequence>
    </complexType>
  </element>
</schema>`
	schema, err := CompileXSD(src, "book", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An incomplete encoding: raw chapter text, no <chapter> markup yet.
	res, err := schema.CheckString(`<book><title>T</title>chapter one text</book>`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PotentiallyValid || res.Valid {
		t.Errorf("res = %+v", res)
	}
	ext, _, err := schema.Complete(MustParseDocument(`<book><title>T</title>chapter one text</book>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Validate(ext); err != nil {
		t.Errorf("completion must validate: %v\n%s", err, ext)
	}
	if !strings.Contains(ext.String(), "<chapter>chapter one text</chapter>") {
		t.Errorf("completion = %s", ext)
	}
	// A hard violation: <title> after a <chapter>.
	res, err = schema.CheckString(`<book><chapter>x</chapter><title>T</title></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.PotentiallyValid {
		t.Error("title after chapter must be a hard violation")
	}
}

func TestParseXSDErrors(t *testing.T) {
	if _, err := ParseXSD(`<oops/>`); err == nil {
		t.Error("bad XSD accepted")
	}
	if _, err := CompileXSD(`<schema><element name="a" type="string"/></schema>`, "ghost", Options{}); err == nil {
		t.Error("unknown root accepted")
	}
}

func TestCompileDTDFileErrors(t *testing.T) {
	if _, err := CompileDTDFile("/nonexistent/schema.dtd", "r", Options{}); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ParseDocumentFile("/nonexistent/doc.xml"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCompleteDiffAndBytesPublicAPI(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})

	ext, d, err := schema.CompleteDiff(MustParseDocument(exampleS))
	if err != nil {
		t.Fatal(err)
	}
	if d.Inserted != 2 || len(d.Insertions) != 2 {
		t.Errorf("diff: %+v", d)
	}
	if d.Completed != ext.String() {
		t.Error("diff serialization disagrees with the completed document")
	}
	if d.Insertions[0].Name != "d" || !strings.HasPrefix(d.Insertions[0].Path, "/r/a[0]") {
		t.Errorf("first insertion: %+v", d.Insertions[0])
	}

	// The byte path produces the identical diff.
	outBytes, bd, err := schema.CompleteBytes([]byte(exampleS))
	if err != nil {
		t.Fatal(err)
	}
	if string(outBytes) != d.Completed || bd.Inserted != 2 {
		t.Errorf("byte path diverges: %s", outBytes)
	}

	// Already-valid identity through the public API: zero insertions,
	// byte-identical serialization.
	valid := `<r><a><c>x</c><d></d></a></r>`
	outBytes, bd, err = schema.CompleteBytes([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if bd.Inserted != 0 || string(outBytes) != valid {
		t.Errorf("already-valid: inserted %d, out %s", bd.Inserted, outBytes)
	}

	// Not potentially valid and malformed inputs fail.
	if _, _, err := schema.CompleteBytes([]byte(`<r><a><b>x</b><e></e><c>y</c></a></r>`)); err == nil {
		t.Error("not-PV input must fail")
	}
	if _, _, err := schema.CompleteBytes([]byte(`<r><a>`)); err == nil {
		t.Error("malformed input must fail")
	}
}

func TestEngineCompleteBatchPublicAPI(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 4})
	fig, err := eng.CompileDTD(Figure1DTD, "r", Options{})
	if err != nil {
		t.Fatal(err)
	}
	play, err := eng.CompileDTD(PlayDTD, "play", Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := []Doc{
		{ID: "fig", Content: exampleS},
		{ID: "valid", Content: `<r><a><c>x</c><d></d></a></r>`},
		{ID: "routed", Content: `<play><title>t</title></play>`, SchemaRef: play.Ref()[:12]},
		{ID: "notpv", Content: `<r><a><b>x</b><e></e><c>y</c></a></r>`},
	}
	results, stats := eng.CompleteBatch(fig, docs, true)
	if len(results) != 4 {
		t.Fatalf("results: %d", len(results))
	}
	if r := results[0]; !r.Completed || r.Inserted != 2 || len(r.Insertions) != 2 {
		t.Errorf("fig: %+v", r)
	}
	if r := results[1]; !r.AlreadyValid || r.Output != docs[1].Content {
		t.Errorf("valid: %+v", r)
	}
	if r := results[2]; !r.Completed || r.Inserted == 0 {
		t.Errorf("routed: %+v", r)
	}
	if r := results[3]; r.Completed || r.Detail == "" {
		t.Errorf("notpv: %+v", r)
	}
	if stats.Docs != 4 || stats.Inserted < 3 {
		t.Errorf("stats: %+v", stats)
	}

	// Single-document synchronous form.
	one := eng.Complete(nil, Doc{ID: "fig", Content: exampleS, SchemaRef: fig.Ref()[:12]}, false)
	if !one.Completed || one.Inserted != 2 || one.Insertions != nil {
		t.Errorf("Complete: %+v", one)
	}

	// The handler exposes the /complete routes.
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/complete", "application/json",
		strings.NewReader(`{"schema":"<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>","root":"r","documents":[{"id":"x","content":"<r>loose text</r>"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var reply struct {
		Results []struct {
			Completed bool   `json:"completed"`
			Inserted  int    `json:"inserted"`
			Output    string `json:"output"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || resp.StatusCode != http.StatusOK ||
		len(reply.Results) != 1 || !reply.Results[0].Completed || reply.Results[0].Inserted != 1 ||
		reply.Results[0].Output != "<r><a>loose text</a></r>" {
		t.Errorf("POST /complete: %d %s (%v)", resp.StatusCode, body, err)
	}
}

func TestCompleteBytesPreservesProlog(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	in := []byte(`<?xml version="1.0"?><!-- note -->` + exampleS)
	out, d, err := schema.CompleteBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), `<?xml version="1.0"?><!-- note -->`) {
		t.Errorf("prolog dropped: %s", out)
	}
	if d.Inserted != 2 || d.Completed != string(out) {
		t.Errorf("diff: %+v", d)
	}
}

// TestCompleteValidInputIsIdentity pins the completion identity on valid
// documents under ambiguous content models, where the completion DP can
// place an insertion although none is needed, and on a valid document
// whose whitespace in element content the potential-validity check reads
// as character data: every entry point returns the input unchanged, with
// zero insertions.
func TestCompleteValidInputIsIdentity(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	for _, tc := range []struct{ name, dtd, root, xml string }{
		{"optional-then-required",
			`<!ELEMENT e0 (e6?, e6, e4*)> <!ELEMENT e4 (#PCDATA)> <!ELEMENT e6 (#PCDATA)>`, "e0",
			`<e0><e6>quarto</e6><e4>quarto</e4></e0>`},
		{"star-then-choice",
			`<!ELEMENT e0 (e5*, (e0 | e5))> <!ELEMENT e5 EMPTY>`, "e0",
			`<e0><e5></e5></e0>`},
		{"nested-choice",
			`<!ELEMENT e0 (e5?, e4?, (e0 | e5))> <!ELEMENT e4 (#PCDATA)> <!ELEMENT e5 EMPTY>`, "e0",
			`<e0><e5></e5><e0><e5></e5></e0></e0>`},
		{"whitespace-in-element-content", Figure1DTD, "r",
			`<r><a><b><d>x</d> </b><c>y</c><d></d></a></r>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := eng.CompileDTD(tc.dtd, tc.root, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := schema.ValidateString(tc.xml); err != nil {
				t.Fatalf("test input must be valid: %v", err)
			}
			ext, inserted, err := schema.Complete(MustParseDocument(tc.xml))
			if err != nil || inserted != 0 || ext.String() != tc.xml {
				t.Errorf("Complete: %d insertions, %v: %s", inserted, err, ext)
			}
			ext, d, err := schema.CompleteDiff(MustParseDocument(tc.xml))
			if err != nil || d.Inserted != 0 || ext.String() != tc.xml {
				t.Errorf("CompleteDiff: %+v, %v: %s", d, err, ext)
			}
			out, d, err := schema.CompleteBytes([]byte(tc.xml))
			if err != nil || d.Inserted != 0 || string(out) != tc.xml {
				t.Errorf("CompleteBytes: %+v, %v: %s", d, err, out)
			}
			results, _ := eng.CompleteBatch(schema, []Doc{{ID: tc.name, Content: tc.xml}}, true)
			if r := results[0]; !r.Completed || !r.AlreadyValid || r.Inserted != 0 || r.Output != tc.xml {
				t.Errorf("CompleteBatch: %+v", r)
			}
		})
	}
}
