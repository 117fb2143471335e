package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
)

// exampleS is the paper's running example (Figure 3: two <d> insertions).
const exampleS = `<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`

func TestCompleteBatchBasics(t *testing.T) {
	e := New(Config{Workers: 4})
	s, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := []Doc{
		{ID: "figure3", Content: exampleS},
		{ID: "valid", Content: `<r><a><c>x</c><d></d></a></r>`},
		{ID: "notpv", Content: `<r><a><b>x</b><e></e><c>y</c></a></r>`},
		{ID: "malformed", Content: `<r><a>`},
	}
	results, stats := e.CompleteBatch(s, docs, true)
	if len(results) != 4 {
		t.Fatalf("results: %d", len(results))
	}
	fig := results[0]
	if !fig.Completed || fig.AlreadyValid || fig.Inserted != 2 || len(fig.Insertions) != 2 {
		t.Errorf("figure3: %+v", fig)
	}
	if !strings.Contains(fig.Output, "<d>") {
		t.Errorf("figure3 output: %s", fig.Output)
	}
	valid := results[1]
	if !valid.Completed || !valid.AlreadyValid || valid.Inserted != 0 || valid.Output != docs[1].Content {
		t.Errorf("valid: %+v", valid)
	}
	if results[2].Completed || results[2].Detail == "" || results[2].Err != nil {
		t.Errorf("notpv: %+v", results[2])
	}
	if results[3].Err == nil {
		t.Errorf("malformed: %+v", results[3])
	}
	if stats.Docs != 4 || stats.PotentiallyValid != 2 || stats.Valid != 1 ||
		stats.Malformed != 1 || stats.Inserted != 2 {
		t.Errorf("stats: %+v", stats)
	}
	// Lifetime counters picked the insertions up.
	if es := e.Stats(); es.Inserted != 2 || es.Docs != 4 {
		t.Errorf("engine stats: %+v", es)
	}
}

// TestCompleteBatchOutputsValidate: every completed output must fully
// validate under its schema, and re-completing it must be a no-op.
func TestCompleteBatchOutputsValidate(t *testing.T) {
	e := New(Config{Workers: 4})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	d := dtd.MustParse(dtd.Play)
	var docs []Doc
	for i := 0; i < 60; i++ {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 7, MaxRepeat: 3})
		if i%2 == 1 {
			gen.Strip(rng, doc, 0.4)
		}
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	results, stats := e.CompleteBatch(s, docs, true)
	if stats.Malformed != 0 || stats.PotentiallyValid != len(docs) {
		t.Fatalf("stats: %+v", stats)
	}
	for _, r := range results {
		out, err := dom.Parse(r.Output)
		if err != nil {
			t.Fatalf("doc %s output does not parse: %v", r.ID, err)
		}
		if verr := s.Valid.Validate(out.Root); verr != nil {
			t.Errorf("doc %s completion does not validate: %v", r.ID, verr)
		}
		if r.Inserted == 0 && r.Output != docs[r.Index].Content {
			t.Errorf("doc %s: zero insertions but output differs", r.ID)
		}
	}
}

// treeComplete is the tree oracle of one completion (see
// TestCompleteBatchDifferential).
func treeComplete(c *complete.Completer, content string) CompleteResult {
	res := CompleteResult{Bytes: len(content)}
	doc, err := dom.Parse(content)
	if err != nil {
		res.Err = err
		return res
	}
	nodes, valid, err := c.CompleteInPlace(doc.Root)
	if err != nil {
		if core.IsViolation(err) {
			res.Detail = err.Error()
		} else {
			res.Err = err
		}
		return res
	}
	res.Completed, res.AlreadyValid, res.Inserted = true, valid, len(nodes)
	res.Output = doc.String()
	if !valid {
		res.Insertions = diff.ComputeDoc(doc.Root, nodes, res.Output).Insertions
	}
	return res
}

// TestCompleteBatchDifferential pins the worker-pool completion over the
// input bytes to the tree oracle: identical outputs, inserted counts,
// records, details and error kinds, across a mixed corpus (valid,
// stripped and corrupted documents, each its own serialization) and
// several worker counts.
func TestCompleteBatchDifferential(t *testing.T) {
	d := dtd.MustParse(dtd.Figure1)
	rng := rand.New(rand.NewSource(7))
	var docs []Doc
	for i := 0; i < 120; i++ {
		doc := gen.GenValid(rng, d, "r", gen.DocOptions{MaxDepth: 6, MaxRepeat: 2})
		switch i % 3 {
		case 1:
			gen.Strip(rng, doc, 0.5)
		case 2:
			gen.Corrupt(rng, d, doc)
		}
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	// Sequential reference: the tree oracle, one fresh completer per
	// document: parse, complete the tree, serialize at document level and
	// walk it for the records — the path the engine ran before it
	// completed over the input bytes.
	seq := make([]CompleteResult, len(docs))
	refEngine := New(Config{Workers: 1})
	refSchema, err := refEngine.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		seq[i] = treeComplete(complete.New(refSchema.Core), doc.Content)
	}
	for _, workers := range []int{1, 2, 8} {
		e := New(Config{Workers: workers})
		s, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results, _ := e.CompleteBatch(s, docs, true)
		for i := range results {
			got, want := results[i], seq[i]
			if got.Completed != want.Completed || got.Inserted != want.Inserted ||
				got.AlreadyValid != want.AlreadyValid ||
				got.Output != want.Output || got.Detail != want.Detail ||
				(got.Err == nil) != (want.Err == nil) {
				t.Errorf("workers=%d doc %d diverges:\n got  %+v\n want %+v", workers, i, got, want)
			}
			if len(got.Insertions) != len(want.Insertions) {
				t.Errorf("workers=%d doc %d: %d insertions, want %d", workers, i, len(got.Insertions), len(want.Insertions))
				continue
			}
			for k := range got.Insertions {
				if got.Insertions[k] != want.Insertions[k] {
					t.Errorf("workers=%d doc %d insertion %d: %+v != %+v", workers, i, k, got.Insertions[k], want.Insertions[k])
				}
			}
		}
	}
}

// TestCompleteSchemaRefRouting: a mixed batch routes completions by ref;
// docs without ref and without default get a routing error.
func TestCompleteSchemaRefRouting(t *testing.T) {
	e := New(Config{Workers: 2})
	fig, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	play, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := []Doc{
		{ID: "fig", Content: exampleS, SchemaRef: fig.Ref[:12]},
		{ID: "play", Content: `<play><title>t</title></play>`, SchemaRef: play.Ref[:12]},
		{ID: "lost", Content: `<r></r>`},
		{ID: "badref", Content: `<r></r>`, SchemaRef: strings.Repeat("f", 16)},
	}
	results, stats := e.CompleteBatch(nil, docs, false)
	if !results[0].Completed || results[0].Inserted != 2 {
		t.Errorf("fig: %+v", results[0])
	}
	if !results[1].Completed || results[1].Inserted == 0 {
		t.Errorf("play: %+v", results[1])
	}
	if !IsRoutingError(results[2].Err) || !IsRoutingError(results[3].Err) {
		t.Errorf("routing: %+v / %+v", results[2], results[3])
	}
	if stats.RoutingErrors != 2 {
		t.Errorf("stats: %+v", stats)
	}
	// withDiff=false leaves records off but keeps output + count.
	if results[0].Insertions != nil {
		t.Errorf("diff off but records present: %+v", results[0])
	}
}

func completeBody(t *testing.T, schema, root string, docs []map[string]any, diffFlag *bool) string {
	t.Helper()
	m := map[string]any{"documents": docs}
	if schema != "" {
		m["schema"] = schema
	}
	if root != "" {
		m["root"] = root
	}
	if diffFlag != nil {
		m["diff"] = *diffFlag
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServerComplete(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	body := completeBody(t, dtd.Figure1, "r", []map[string]any{
		{"id": "figure3", "content": exampleS},
		{"id": "valid", "content": `<r><a><c>x</c><d></d></a></r>`},
		{"id": "notpv", "content": `<r><a><b>x</b><e></e><c>y</c></a></r>`},
	}, nil)
	rec := post(t, h, "/complete", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp completeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results: %+v", resp.Results)
	}
	fig := resp.Results[0]
	if !fig.Completed || fig.Inserted != 2 || len(fig.Insertions) != 2 || !strings.Contains(fig.Output, "<d>") {
		t.Errorf("figure3: %+v", fig)
	}
	if !resp.Results[1].AlreadyValid || resp.Results[1].Inserted != 0 {
		t.Errorf("valid: %+v", resp.Results[1])
	}
	// Not potentially valid is a typed verdict with detail — not a 500.
	notpv := resp.Results[2]
	if notpv.Completed || notpv.Detail == "" || notpv.Error != "" {
		t.Errorf("notpv: %+v", notpv)
	}
	if resp.Stats.Inserted != 2 || resp.Stats.Docs != 3 {
		t.Errorf("stats: %+v", resp.Stats)
	}
}

// TestCompleteDetailIsCheckDetail pins one verdict and one wording for a
// not potentially valid document: /complete's detail is /check's behind
// the completion prefix, because both routes decide on the same stream
// checker.
func TestCompleteDetailIsCheckDetail(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	for _, doc := range []string{
		`<r><a><b>x</b><e></e><c>y</c></a></r>`, // Example 1's w
		`<r><zzz></zzz></r>`,
		`<d></d>`,
	} {
		var check resultJSON
		if err := json.Unmarshal(post(t, h, "/check", checkBody(t, dtd.Figure1, "r", doc)).Body.Bytes(), &check); err != nil {
			t.Fatal(err)
		}
		var resp completeResponse
		body := completeBody(t, dtd.Figure1, "r", []map[string]any{{"id": "x", "content": doc}}, nil)
		if err := json.Unmarshal(post(t, h, "/complete", body).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if check.PotentiallyValid || check.Detail == "" || len(resp.Results) != 1 {
			t.Fatalf("%s: /check %+v, /complete %+v", doc, check, resp.Results)
		}
		if got, want := resp.Results[0].Detail, "complete: document is not potentially valid: "+check.Detail; got != want {
			t.Errorf("%s: /complete detail %q, want %q", doc, got, want)
		}
	}
}

// TestCompleteWhitespaceValidIsIdentity pins /complete's answer on a valid
// document that /check finds not potentially valid: without
// IgnoreWhitespaceText the checker reads the space after <d> as
// character data that <b> (d | f) cannot take, while the validator
// ignores whitespace in element content. /complete answers as the
// validator does: already valid, output unchanged.
func TestCompleteWhitespaceValidIsIdentity(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	doc := `<r><a><b><d>x</d> </b><c>y</c><d></d></a></r>`
	var check resultJSON
	if err := json.Unmarshal(post(t, h, "/check", checkBody(t, dtd.Figure1, "r", doc)).Body.Bytes(), &check); err != nil {
		t.Fatal(err)
	}
	if check.PotentiallyValid || check.Valid {
		t.Errorf("/check: %+v, want not potentially valid", check)
	}
	var resp completeResponse
	body := completeBody(t, dtd.Figure1, "r", []map[string]any{{"id": "x", "content": doc}}, nil)
	if err := json.Unmarshal(post(t, h, "/complete", body).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("/complete: %+v", resp.Results)
	}
	if r := resp.Results[0]; !r.Completed || !r.AlreadyValid || r.Inserted != 0 || r.Output != doc || r.Detail != "" || len(r.Insertions) != 0 {
		t.Errorf("/complete: %+v, want already valid and unchanged", r)
	}
}

// TestWhitespaceInEmptyIsNotPV: with IgnoreWhitespaceText, whitespace
// inside an EMPTY element is still character data the element cannot
// take, and no insertion makes the document valid. /check answers not
// potentially valid, and /complete answers with /check's detail and
// counts no malformed document. Whitespace in element content stays
// hidden.
func TestWhitespaceInEmptyIsNotPV(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	opts := map[string]any{"IgnoreWhitespaceText": true}
	doc := `<r><a><c>x</c><d><e> </e></d></a></r>`
	var check resultJSON
	rec := postJSON(t, h, "/check", map[string]any{"schema": dtd.Figure1, "root": "r", "options": opts, "document": doc})
	if err := json.Unmarshal(rec.Body.Bytes(), &check); err != nil {
		t.Fatal(err)
	}
	if check.PotentiallyValid || check.Valid || check.Error != "" ||
		check.Detail != "content of <e> is not potentially valid at character data" {
		t.Fatalf("/check: %+v, want not potentially valid at <e>'s text", check)
	}
	var resp completeResponse
	rec = postJSON(t, h, "/complete", map[string]any{"schema": dtd.Figure1, "root": "r", "options": opts,
		"documents": []map[string]any{{"id": "e", "content": doc}}})
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("/complete: %s", rec.Body)
	}
	if r := resp.Results[0]; r.Completed || r.Error != "" || r.Detail != "complete: document is not potentially valid: "+check.Detail {
		t.Errorf("/complete: %+v, want /check's detail", r)
	}
	if resp.Stats.Malformed != 0 {
		t.Errorf("/complete counted %d malformed documents", resp.Stats.Malformed)
	}
	spaced := `<r><a><c>x</c><d> <e></e> </d></a></r>`
	rec = postJSON(t, h, "/check", map[string]any{"schema": dtd.Figure1, "root": "r", "options": opts, "document": spaced})
	if err := json.Unmarshal(rec.Body.Bytes(), &check); err != nil {
		t.Fatal(err)
	}
	if !check.PotentiallyValid {
		t.Errorf("/check %s: %+v, want whitespace in element content hidden", spaced, check)
	}
}

// TestCompleteKeepsDecorations: completion only inserts tags, so a
// comment between items that one wrapper takes stays where it was. The
// tree path used to drop it: it re-attached each decoration after the
// wrapper holding the item before it, and only for the wrapper's last
// item.
func TestCompleteKeepsDecorations(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	doc := `<r><a><c>x</c>tail<!-- lost --><e></e></a></r>`
	var resp completeResponse
	body := completeBody(t, dtd.Figure1, "r", []map[string]any{{"id": "x", "content": doc}}, nil)
	if err := json.Unmarshal(post(t, h, "/complete", body).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := `<r><a><c>x</c><d>tail<!-- lost --><e></e></d></a></r>`
	if len(resp.Results) != 1 || resp.Results[0].Output != want || resp.Results[0].Inserted != 1 {
		t.Fatalf("/complete: %+v\nwant output %s", resp.Results, want)
	}
	if got := resp.Results[0].Insertions; len(got) != 1 || got[0] != (diff.Insertion{Path: "/r/a[0]", Index: 1, Name: "d"}) {
		t.Errorf("records %+v", got)
	}
}

// TestCompleteSplitTextIsOneItem: text that only a comment or a PI
// splits is one character-data item, as /check reads it, so a document
// /check calls potentially valid completes. The tree path made each piece
// its own item, found no embedding into <c>'s #PCDATA model and counted
// the document as malformed.
func TestCompleteSplitTextIsOneItem(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	for _, deco := range []string{"<!--x-->", "<?p x?>"} {
		doc := `<r><a><c>foo` + deco + `bar</c></a></r>`
		var check resultJSON
		if err := json.Unmarshal(post(t, h, "/check", checkBody(t, dtd.Figure1, "r", doc)).Body.Bytes(), &check); err != nil {
			t.Fatal(err)
		}
		if !check.PotentiallyValid {
			t.Fatalf("/check %s: %+v, want potentially valid", doc, check)
		}
		var resp completeResponse
		body := completeBody(t, dtd.Figure1, "r", []map[string]any{{"id": "x", "content": doc}}, nil)
		if err := json.Unmarshal(post(t, h, "/complete", body).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want := `<r><a><c>foo` + deco + `bar</c><d></d></a></r>`
		if len(resp.Results) != 1 || !resp.Results[0].Completed || resp.Results[0].Output != want || resp.Stats.Malformed != 0 {
			t.Errorf("/complete %s: %+v, stats %+v\nwant output %s", doc, resp.Results, resp.Stats, want)
		}
	}
}

// TestServerCompleteDiffSwitch: "diff": false drops insertion records.
func TestServerCompleteDiffSwitch(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	off := false
	body := completeBody(t, dtd.Figure1, "r", []map[string]any{
		{"id": "figure3", "content": exampleS},
	}, &off)
	rec := post(t, h, "/complete", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp completeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if r := resp.Results[0]; r.Inserted != 2 || r.Insertions != nil || r.Output == "" {
		t.Errorf("diff off: %+v", r)
	}
}

// TestServerCompleteErrorPaths covers the satellite matrix: unknown schema
// ref, not-PV input, bad schema, and an oversized body.
func TestServerCompleteErrorPaths(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))

	// Unknown schema ref: per-document error, request still 200.
	body := completeBody(t, "", "", []map[string]any{
		{"id": "ghost", "content": `<r></r>`, "schemaRef": strings.Repeat("e", 16)},
	}, nil)
	rec := post(t, h, "/complete", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("unknown ref status %d: %s", rec.Code, rec.Body)
	}
	var resp completeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Results[0].Error, "unknown schemaRef") || resp.Stats.RoutingErrors != 1 {
		t.Errorf("unknown ref: %+v stats %+v", resp.Results[0], resp.Stats)
	}

	// Schema that does not compile: 422.
	rec = post(t, h, "/complete", completeBody(t, "<!ELEMENT broken", "r", nil, nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad schema status %d: %s", rec.Code, rec.Body)
	}

	// Garbage body: 400.
	rec = post(t, h, "/complete", `{"this is not json`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", rec.Code)
	}
}

// TestServerCompleteOversized: a /complete body over MaxRequestBytes draws
// a 413 (the batched route caps the whole body, like /batch).
func TestServerCompleteOversized(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates >64MB")
	}
	h := NewServer(New(Config{Workers: 2}))
	big := strings.Repeat("x", MaxRequestBytes+1)
	body := completeBody(t, dtd.Figure1, "r", []map[string]any{{"id": "big", "content": big}}, nil)
	rec := post(t, h, "/complete", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

// TestCompleteStreamHappyPath: NDJSON in, per-document completion lines
// with diff records out, stats trailer with inserted total.
func TestCompleteStreamHappyPath(t *testing.T) {
	h := NewServer(New(Config{Workers: 4}))
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "figure3", exampleS, ""),
		docLine(t, "valid", `<r><a><c>x</c><d></d></a></r>`, ""),
		docLine(t, "notpv", `<r><a><b>x</b><e></e><c>y</c></a></r>`, ""),
		docLine(t, "malformed", `<r><a>`, ""),
	)
	rec := post(t, h, "/complete/stream", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	results, errLines, stats := parseCompleteStream(t, rec.Body.String())
	if len(errLines) > 0 {
		t.Fatalf("unexpected error lines: %v", errLines)
	}
	if len(results) != 4 || stats == nil {
		t.Fatalf("results %d, stats %v", len(results), stats)
	}
	if r := results[0]; !r.Completed || r.Inserted != 2 || len(r.Insertions) != 2 || r.Index != 0 {
		t.Errorf("figure3: %+v", r)
	}
	if r := results[1]; !r.AlreadyValid || r.Inserted != 0 {
		t.Errorf("valid: %+v", r)
	}
	if r := results[2]; r.Completed || r.Detail == "" || r.Error != "" {
		t.Errorf("notpv: %+v", r)
	}
	if r := results[3]; r.Error == "" {
		t.Errorf("malformed: %+v", r)
	}
	if stats.Docs != 4 || stats.Inserted != 2 || stats.Malformed != 1 {
		t.Errorf("stats: %+v", stats)
	}
}

// parseCompleteStream splits an NDJSON completion response into result
// lines and the stats trailer.
func parseCompleteStream(t *testing.T, body string) (results []completeJSON, errLines []string, stats *BatchStats) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		switch {
		case probe["stats"] != nil:
			var s streamStats
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatal(err)
			}
			stats = &s.Stats
		case probe["error"] != nil && probe["index"] == nil:
			var e map[string]string
			json.Unmarshal([]byte(line), &e)
			errLines = append(errLines, e["error"])
		default:
			var r completeJSON
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	return results, errLines, stats
}

// TestCompleteStreamMixedSchemaCorpus is the acceptance experiment: a
// 1k-document mixed-schema NDJSON corpus streams through
// POST /complete/stream with per-document diff records, and the streamed
// outputs match sequential per-document completion exactly (completed
// output and inserted counts identical).
func TestCompleteStreamMixedSchemaCorpus(t *testing.T) {
	const corpus = 1000
	e := New(Config{Workers: 4})
	fig, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	play, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(e)

	figD := dtd.MustParse(dtd.Figure1)
	playD := dtd.MustParse(dtd.Play)
	rng := rand.New(rand.NewSource(42))
	lines := []string{header(t, dtd.WeakRecursive, "p")} // default schema for ref-less docs
	type docRec struct {
		id      string
		content string
		schema  *Schema
	}
	var docsMeta []docRec
	for i := 0; i < corpus; i++ {
		var content string
		var ref string
		var s *Schema
		switch i % 3 {
		case 0:
			doc := gen.GenValid(rng, figD, "r", gen.DocOptions{MaxDepth: 5, MaxRepeat: 2})
			gen.Strip(rng, doc, 0.4)
			content, ref, s = doc.String(), fig.Ref[:16], fig
		case 1:
			doc := gen.GenValid(rng, playD, "play", gen.DocOptions{MaxDepth: 6, MaxRepeat: 2})
			gen.Strip(rng, doc, 0.3)
			content, ref, s = doc.String(), play.Ref[:16], play
		case 2:
			content = fmt.Sprintf(`<p>pv %d <b>bold</b> tail</p>`, i)
			var werr error
			s, werr = e.Compile(DTDSource, dtd.WeakRecursive, "p", CompileOptions{})
			if werr != nil {
				t.Fatal(werr)
			}
		}
		id := fmt.Sprint(i)
		docsMeta = append(docsMeta, docRec{id: id, content: content, schema: s})
		lines = append(lines, docLine(t, id, content, ref))
	}
	start := time.Now()
	rec := post(t, h, "/complete/stream", ndjson(lines...))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %.400s", rec.Code, rec.Body)
	}
	results, errLines, stats := parseCompleteStream(t, rec.Body.String())
	if len(errLines) > 0 {
		t.Fatalf("error lines: %v", errLines)
	}
	if len(results) != corpus || stats == nil || stats.Docs != corpus {
		t.Fatalf("results %d stats %+v", len(results), stats)
	}
	if stats.Malformed != 0 || stats.RoutingErrors != 0 || stats.PotentiallyValid != corpus {
		t.Fatalf("stats: %+v", stats)
	}
	t.Logf("1k mixed-schema completions in %v (%d elements inserted)", time.Since(start), stats.Inserted)

	// Engine-vs-sequential differential equality: identical outputs and
	// inserted counts, plus every stripped document carries diff records.
	for i, r := range results {
		meta := docsMeta[i]
		if r.ID != meta.id || r.Index != i {
			t.Fatalf("ordering broke at %d: %+v", i, r)
		}
		doc, err := dom.Parse(meta.content)
		if err != nil {
			t.Fatal(err)
		}
		c := complete.New(meta.schema.Core)
		if meta.schema.Valid.Validate(doc.Root) == nil {
			if !r.AlreadyValid || r.Inserted != 0 || r.Output != meta.content {
				t.Errorf("doc %s: already-valid mismatch: %+v", r.ID, r)
			}
			continue
		}
		out, nodes, err := c.CompleteTracked(doc.Root)
		if err != nil {
			t.Fatalf("sequential completion of %s failed: %v", r.ID, err)
		}
		if r.Output != out.String() || r.Inserted != len(nodes) {
			t.Errorf("doc %s diverges from sequential: inserted %d vs %d", r.ID, r.Inserted, len(nodes))
		}
		if r.Inserted > 0 && len(r.Insertions) != r.Inserted {
			t.Errorf("doc %s: %d insertion records for %d insertions", r.ID, len(r.Insertions), r.Inserted)
		}
	}
}

// TestCompleteStreamOversizedDocument: per-document 64MB cap with a typed
// 413, as on /check/stream.
func TestCompleteStreamOversizedDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates >128MB")
	}
	h := NewServer(New(Config{Workers: 2}))
	big := strings.Repeat("x", MaxDocumentBytes+1)
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "big", "<r>"+big+"</r>", ""),
	)
	rec := post(t, h, "/complete/stream", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "per-document cap") {
		t.Fatalf("error body: %.200s", rec.Body)
	}
}

// TestCompleteStreamClientDisconnect: the handler finishes promptly after
// the client dies mid-stream, having flushed completed results.
func TestCompleteStreamClientDisconnect(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/complete/stream", pr)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	pw.Write([]byte(header(t, dtd.Figure1, "r") + "\n"))
	pw.Write([]byte(docLine(t, "one", exampleS, "") + "\n"))
	pw.CloseWithError(io.ErrUnexpectedEOF) // client vanishes mid-stream
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not finish after client disconnect")
	}
	results, errLines, _ := parseCompleteStream(t, rec.Body.String())
	if len(results) != 1 || !results[0].Completed || results[0].Inserted != 2 {
		t.Fatalf("flushed results before disconnect: %+v", results)
	}
	if len(errLines) != 1 || !strings.Contains(errLines[0], "reading request body") {
		t.Fatalf("error lines: %v", errLines)
	}
}

// TestCompleteStreamDiffQueryParam: ?diff=0 suppresses insertion records on
// the stream.
func TestCompleteStreamDiffQueryParam(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "figure3", exampleS, ""),
	)
	rec := post(t, h, "/complete/stream?diff=0", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	results, _, _ := parseCompleteStream(t, rec.Body.String())
	if len(results) != 1 || results[0].Inserted != 2 || results[0].Insertions != nil {
		t.Fatalf("diff=0: %+v", results)
	}
}

// TestCompletePreservesProlog: completion output is a document-level
// serialization — the XML declaration PI and prolog/epilog comments
// survive, on both the already-valid fast path and the DP path.
func TestCompletePreservesProlog(t *testing.T) {
	e := New(Config{Workers: 2})
	s, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const prolog = `<?xml version="1.0"?><!-- license -->`
	const epilog = `<!-- end -->`
	results, _ := e.CompleteBatch(s, []Doc{
		{ID: "needs-work", Content: prolog + exampleS + epilog},
		{ID: "already-valid", Content: prolog + `<r><a><c>x</c><d></d></a></r>` + epilog},
	}, true)
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("%s: %+v", r.ID, r)
		}
		if !strings.HasPrefix(r.Output, prolog) || !strings.HasSuffix(r.Output, epilog) {
			t.Errorf("%s dropped prolog/epilog: %s", r.ID, r.Output)
		}
	}
	if results[0].Inserted != 2 || results[1].Inserted != 0 {
		t.Errorf("inserted counts: %d / %d", results[0].Inserted, results[1].Inserted)
	}
	// The diff's records are computed against the root; the serialization
	// carried on the wire matches Output.
	if !strings.Contains(results[0].Output, "<d>") {
		t.Errorf("completion missing: %s", results[0].Output)
	}
}
