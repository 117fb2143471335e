package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dtd"
)

// ndjson joins request lines into a stream body.
func ndjson(lines ...string) string { return strings.Join(lines, "\n") + "\n" }

func header(t *testing.T, schema, root string) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"schema": schema, "root": root})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func docLine(t *testing.T, id, content, ref string) string {
	t.Helper()
	m := map[string]any{"id": id, "content": content}
	if ref != "" {
		m["schemaRef"] = ref
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseStream splits an NDJSON response into result lines and the stats
// trailer.
func parseStream(t *testing.T, body string) (results []resultJSON, errLines []string, stats *BatchStats) {
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
			var r resultJSON
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	return results, errLines, stats
}

func TestStreamHappyPath(t *testing.T) {
	h := NewServer(New(Config{Workers: 4}))
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "ok", `<r><a><c>x</c><d></d></a></r>`, ""),
		docLine(t, "notpv", `<r><a><b>x</b><e></e><c>y</c></a></r>`, ""),
		docLine(t, "malformed", `<r><a>`, ""),
	)
	rec := post(t, h, "/check/stream", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	results, errLines, stats := parseStream(t, rec.Body.String())
	if len(errLines) > 0 {
		t.Fatalf("unexpected error lines: %v", errLines)
	}
	if len(results) != 3 || stats == nil {
		t.Fatalf("results %v, stats %v", results, stats)
	}
	if !results[0].PotentiallyValid || !results[0].Valid || results[0].ID != "ok" || results[0].Index != 0 {
		t.Errorf("doc 0: %+v", results[0])
	}
	if results[1].PotentiallyValid || results[1].Detail == "" {
		t.Errorf("doc 1: %+v", results[1])
	}
	if results[2].Error == "" {
		t.Errorf("doc 2: %+v", results[2])
	}
	if stats.Docs != 3 || stats.PotentiallyValid != 1 || stats.Valid != 1 || stats.Malformed != 1 {
		t.Errorf("stats: %+v", stats)
	}
}

// TestStreamMultiSchema switches the default schema mid-stream and routes
// one document by schemaRef.
func TestStreamMultiSchema(t *testing.T) {
	e := New(Config{Workers: 2})
	weak, err := e.Compile(DTDSource, dtd.WeakRecursive, "p", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(e)
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "fig", `<r><a><c>x</c><d></d></a></r>`, ""),
		docLine(t, "weak-ref", `<p>text <b>bold</b></p>`, weak.Ref[:16]),
		header(t, dtd.Play, "play"),
		docLine(t, "play-default", `<play><title>t</title></play>`, ""),
	)
	rec := post(t, h, "/check/stream", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	results, _, stats := parseStream(t, rec.Body.String())
	if len(results) != 3 || stats == nil || stats.Docs != 3 {
		t.Fatalf("results %v stats %+v", results, stats)
	}
	for i, want := range []bool{true, true, true} { // all three PV under their own schema
		if results[i].PotentiallyValid != want {
			t.Errorf("doc %d (%s): %+v", i, results[i].ID, results[i])
		}
	}
	if results[2].Valid {
		t.Errorf("play-default is incomplete; must not be fully valid: %+v", results[2])
	}
}

// TestStreamMalformedJSON: a bad line before any output is a proper 400.
func TestStreamMalformedJSON(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	rec := post(t, h, "/check/stream", ndjson(`{"this is not json`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "bad JSON") {
		t.Fatalf("error body: %s", rec.Body)
	}
}

// TestStreamMalformedJSONMidStream: after results have been flushed the
// stream cannot change its status; the failure becomes a terminal error
// line and no stats trailer is written.
func TestStreamMalformedJSONMidStream(t *testing.T) {
	h := NewServer(New(Config{Workers: 1}))
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "ok", `<r><a><c>x</c><d></d></a></r>`, ""),
		`not json at all`,
	)
	rec := post(t, h, "/check/stream", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	results, errLines, stats := parseStream(t, rec.Body.String())
	if len(results) != 1 || !results[0].PotentiallyValid {
		t.Fatalf("results: %v", results)
	}
	if len(errLines) != 1 || !strings.Contains(errLines[0], "bad JSON") {
		t.Fatalf("error lines: %v", errLines)
	}
	if stats != nil {
		t.Fatalf("stats trailer after terminal error: %+v", stats)
	}
}

// TestStreamUnknownSchemaRef: an unresolvable ref is a per-document error
// — the stream keeps going.
func TestStreamUnknownSchemaRef(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "bad-ref", `<r></r>`, strings.Repeat("d", 16)),
		docLine(t, "ok", `<r><a><c>x</c><d></d></a></r>`, ""),
	)
	rec := post(t, h, "/check/stream", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	results, _, stats := parseStream(t, rec.Body.String())
	if len(results) != 2 || stats == nil || stats.Docs != 2 || stats.RoutingErrors != 1 || stats.Malformed != 0 {
		t.Fatalf("results %v stats %+v", results, stats)
	}
	if !strings.Contains(results[0].Error, "unknown schemaRef") {
		t.Errorf("bad-ref: %+v", results[0])
	}
	if !results[1].PotentiallyValid {
		t.Errorf("ok doc: %+v", results[1])
	}
}

// TestStreamNoSchema: documents before any header and without a ref get a
// typed per-document error.
func TestStreamNoSchema(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	rec := post(t, h, "/check/stream", ndjson(docLine(t, "d", `<r></r>`, "")))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	results, _, _ := parseStream(t, rec.Body.String())
	if len(results) != 1 || !strings.Contains(results[0].Error, "no schemaRef") {
		t.Fatalf("results: %v", results)
	}
}

// TestStreamBadSchemaHeader: a schema that does not compile is terminal
// (422 before output).
func TestStreamBadSchemaHeader(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	rec := post(t, h, "/check/stream", ndjson(header(t, "<!ELEMENT broken", "r")))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// TestStreamOversizedDocument is the 64MB-cap regression test: a document
// over MaxDocumentBytes draws a typed 413 JSON error, per document rather
// than per body (a same-size body split into small documents is fine).
func TestStreamOversizedDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates >128MB")
	}
	h := NewServer(New(Config{Workers: 2}))
	big := strings.Repeat("x", MaxDocumentBytes+1)
	body := ndjson(
		header(t, dtd.Figure1, "r"),
		docLine(t, "big", "<r>"+big+"</r>", ""),
	)
	rec := post(t, h, "/check/stream", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "per-document cap") {
		t.Fatalf("error body: %.200s", rec.Body)
	}

	// Per-document, not per-body: many small documents totalling more than
	// the cap stream through fine.
	var lines []string
	lines = append(lines, header(t, dtd.Figure1, "r"))
	doc := `<r><a><c>` + strings.Repeat("y", 1<<20) + `</c><d></d></a></r>`
	for i := 0; i < 80; i++ { // ~80MB body, 1MB documents
		lines = append(lines, docLine(t, fmt.Sprint(i), doc, ""))
	}
	rec = post(t, h, "/check/stream", ndjson(lines...))
	if rec.Code != http.StatusOK {
		t.Fatalf("split body status %d: %.300s", rec.Code, rec.Body)
	}
	results, errLines, stats := parseStream(t, rec.Body.String())
	if len(errLines) > 0 || stats == nil || stats.Docs != 80 || len(results) != 80 {
		t.Fatalf("split body: %d results, errs %v, stats %+v", len(results), errLines, stats)
	}
}

// TestStreamClientDisconnect drives the handler over a pipe that dies
// mid-stream and requires it to finish promptly without hanging or
// panicking, having flushed the verdicts it completed.
func TestStreamClientDisconnect(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/check/stream", pr)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	pw.Write([]byte(header(t, dtd.Figure1, "r") + "\n"))
	pw.Write([]byte(docLine(t, "one", `<r><a><c>x</c><d></d></a></r>`, "") + "\n"))
	pw.CloseWithError(io.ErrUnexpectedEOF) // client vanishes mid-stream
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not finish after client disconnect")
	}
	results, errLines, _ := parseStream(t, rec.Body.String())
	if len(results) != 1 || !results[0].PotentiallyValid {
		t.Fatalf("flushed results before disconnect: %v", results)
	}
	if len(errLines) != 1 || !strings.Contains(errLines[0], "reading request body") {
		t.Fatalf("error lines: %v", errLines)
	}
}

// TestStreamEmptyBody: an empty stream is fine — just a stats trailer.
func TestStreamEmptyBody(t *testing.T) {
	h := NewServer(New(Config{Workers: 2}))
	rec := post(t, h, "/check/stream", "\n\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	results, errLines, stats := parseStream(t, rec.Body.String())
	if len(results) != 0 || len(errLines) != 0 || stats == nil || stats.Docs != 0 {
		t.Fatalf("results %v errs %v stats %+v", results, errLines, stats)
	}
}

// TestBatchSchemaRefOverHTTP exercises multi-schema routing through the
// non-streaming /batch route, including ref-only batches with no inline
// schema.
func TestBatchSchemaRefOverHTTP(t *testing.T) {
	e := New(Config{Workers: 2})
	fig, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(e)
	body, err := json.Marshal(map[string]any{
		"documents": []map[string]string{
			{"id": "a", "content": `<r><a><c>x</c><d></d></a></r>`, "schemaRef": fig.Ref[:16]},
			{"id": "b", "content": `<r></r>`},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/batch", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || !resp.Results[0].PotentiallyValid {
		t.Fatalf("results: %+v", resp.Results)
	}
	if !strings.Contains(resp.Results[1].Error, "no schemaRef") {
		t.Fatalf("unrouted doc: %+v", resp.Results[1])
	}
}

// streamOverListener posts a header plus 64 mixed Play documents (about
// 120 KB of NDJSON) to route on a real HTTP/1.1 listener and checks that
// every result line equals want(i) and a stats line closes the stream. The
// server flushes verdicts while the body is still arriving; without full
// duplex Go's server closes the unread body at the first flush and the
// stream ends early in a read error.
func streamOverListener(t *testing.T, e *Engine, route string, docs []Doc, want func(i int) any) {
	t.Helper()
	lines := []string{header(t, dtd.Play, "play")}
	for _, d := range docs {
		lines = append(lines, docLine(t, d.ID, d.Content, ""))
	}
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	resp, err := http.Post(srv.URL+route, "application/x-ndjson", strings.NewReader(ndjson(lines...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(got) != len(docs)+1 {
		t.Fatalf("%s: %d lines for %d documents, last %q", route, len(got), len(docs), got[len(got)-1])
	}
	for i := range docs {
		w, err := marshal(want(i))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != string(w) {
			t.Errorf("%s: line %d\n  got:  %s\n  want: %s", route, i, got[i], w)
		}
	}
	if !strings.HasPrefix(got[len(docs)], `{"stats":`) {
		t.Errorf("%s: last line is not the stats line: %s", route, got[len(docs)])
	}
}

// TestCheckStreamRealConnection: /check/stream over a real connection
// answers every document exactly as CheckBatch does.
func TestCheckStreamRealConnection(t *testing.T) {
	e := New(Config{Workers: 2})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := benchCorpus(64)
	results, _ := e.CheckBatch(s, docs)
	streamOverListener(t, e, "/check/stream", docs, func(i int) any { return toJSON(results[i]) })
}

// TestCompleteStreamRealConnection: /complete/stream over a real
// connection answers every document exactly as CompleteBatch does.
func TestCompleteStreamRealConnection(t *testing.T) {
	e := New(Config{Workers: 2})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := benchCorpus(64)
	results, _ := e.CompleteBatch(s, docs, true)
	streamOverListener(t, e, "/complete/stream", docs, func(i int) any { return completeToJSON(results[i]) })
}
