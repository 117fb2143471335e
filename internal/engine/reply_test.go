package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/jobs"
)

// checkCompact checks one JSON value the server wrote: compact (json.Compact
// leaves it as it is), with <, > and & never escaped, holding raw when raw
// is set, and decoding through typed (with unknown fields refused) to the
// same value that encoding/json's indented, HTML-escaped encoding of that
// struct carries.
func checkCompact(t *testing.T, what string, line []byte, typed any, raw string) {
	t.Helper()
	line = bytes.TrimSuffix(line, []byte("\n"))
	var c bytes.Buffer
	if err := json.Compact(&c, line); err != nil || !bytes.Equal(c.Bytes(), line) {
		t.Errorf("%s: not compact JSON (%v): %s", what, err, line)
	}
	for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`} {
		if bytes.Contains(line, []byte(esc)) {
			t.Errorf("%s: escapes %s: %s", what, esc, line)
		}
	}
	if raw != "" && !bytes.Contains(line, []byte(raw)) {
		t.Errorf("%s: no raw %q in %s", what, raw, line)
	}
	if err := oracleDecode(line, typed); err != nil {
		t.Fatalf("%s: %v: %s", what, err, line)
	}
	indented, err := json.MarshalIndent(typed, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(indented, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decodes to\n %v\nbut its struct encodes\n %v", what, got, want)
	}
}

// ndjsonLines splits an NDJSON body into its lines.
func ndjsonLines(body []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
}

// TestRepliesAreCompact covers every route family that writes JSON: sync
// replies, both streams, job results, the 202, errors, /stats and
// receipts (sync and async). Each must be compact with <, > and & as
// themselves, and decode to the value its struct carries.
func TestRepliesAreCompact(t *testing.T) {
	e := New(Config{Workers: 2, JobWorkers: 1})
	defer e.Close()
	h := NewServer(e)
	docs := []Doc{
		{ID: "ok<&>", Content: `<r><a><c>x</c><d></d></a></r>`},
		{ID: "notpv<&>", Content: `<r><a><b>x</b><e></e><c>y</c></a></r>`},
		{ID: "broken<&>", Content: `<r><a>`},
		{ID: "stripped<&>", Content: `<r><c>x</c></r>`},
	}
	withDocs := map[string]any{"schema": dtd.Figure1, "root": "r", "documents": docs}

	rec := postJSON(t, h, "/check", map[string]any{"schema": dtd.Figure1, "root": "r", "document": docs[1].Content})
	checkCompact(t, "/check", rec.Body.Bytes(), new(resultJSON), "<a>")
	s := mustSchema(t, e, dtd.Figure1, "r")
	var direct resultJSON
	_ = json.Unmarshal(rec.Body.Bytes(), &direct)
	if want := toJSON(e.Check(s, Doc{Content: docs[1].Content})); direct != want {
		t.Errorf("/check: %+v, want %+v", direct, want)
	}

	rec = postJSON(t, h, "/batch", withDocs)
	checkCompact(t, "/batch", rec.Body.Bytes(), new(batchResponse), "ok<&>")
	rec = postJSON(t, h, "/batch?receipt=1", withDocs)
	checkCompact(t, "/batch?receipt=1", rec.Body.Bytes(), new(batchResponse), `"docId":"ok<&>"`)
	rec = postJSON(t, h, "/complete", withDocs)
	checkCompact(t, "/complete", rec.Body.Bytes(), new(completeResponse), `"output":"<r><a><c>x</c><d></d></a></r>"`)
	rec = postJSON(t, h, "/complete?receipt=1", withDocs)
	checkCompact(t, "/complete?receipt=1", rec.Body.Bytes(), new(completeResponse), `"docId":"ok<&>"`)
	rec = postJSON(t, h, "/check", map[string]any{"schema": "<!ELEMENT r (a", "root": "r", "document": "<r/>"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad schema: %d", rec.Code)
	}
	checkCompact(t, "422 error", rec.Body.Bytes(), new(map[string]string), "")

	for _, route := range []string{"/check/stream", "/complete/stream"} {
		lines := []string{header(t, dtd.Figure1, "r")}
		for _, d := range docs {
			lines = append(lines, docLine(t, d.ID, d.Content, ""))
		}
		rec = post(t, h, route, ndjson(lines...))
		out := ndjsonLines(rec.Body.Bytes())
		if len(out) != len(docs)+1 {
			t.Fatalf("%s: %d lines: %s", route, len(out), rec.Body)
		}
		for i, line := range out[:len(docs)] {
			var typed any = new(resultJSON)
			if route == "/complete/stream" {
				typed = new(completeJSON)
			}
			checkCompact(t, fmt.Sprintf("%s line %d", route, i), line, typed, "<&>")
		}
		checkCompact(t, route+" stats", out[len(docs)], new(streamStats), "")
	}

	rec = postJSON(t, h, "/batch?async=1&receipt=1", withDocs)
	checkCompact(t, "202", rec.Body.Bytes(), new(jobAccepted), "")
	var acc jobAccepted
	_ = json.Unmarshal(rec.Body.Bytes(), &acc)
	if info := pollJob(t, h, acc.JobID); info["state"] != "done" {
		t.Fatalf("job ended %v", info["state"])
	}
	rec = get(t, h, "/jobs/"+acc.JobID+"/results")
	out := ndjsonLines(rec.Body.Bytes())
	if len(out) != len(docs) {
		t.Fatalf("results: %d lines: %s", len(out), rec.Body)
	}
	for i, line := range out {
		checkCompact(t, fmt.Sprintf("results line %d", i), line, new(resultJSON), "<&>")
	}
	rec = get(t, h, "/jobs/"+acc.JobID+"/receipt")
	checkCompact(t, "job receipt", rec.Body.Bytes(), new(Receipt), `"docId":"ok<&>"`)
	rec = get(t, h, "/stats")
	checkCompact(t, "/stats", rec.Body.Bytes(), new(statsResponse), "")
}

// oldPayload is a check job's write-ahead payload as servers wrote it
// before they stopped escaping <, > and & (the %s is the schema ref).
const oldPayload = `{"op":"check","schema":"%s","hasDefault":true,"docs":[` +
	`{"id":"ok\u003c\u0026\u003e","c":"\u003cr\u003e\u003ca\u003e\u003cc\u003ex \u0026amp; y\u003c/c\u003e\u003cd\u003e\u003c/d\u003e\u003c/a\u003e\u003c/r\u003e"},` +
	`{"id":"notpv","c":"\u003cr\u003e\u003ca\u003e\u003cb\u003ex\u003c/b\u003e\u003ce\u003e\u003c/e\u003e\u003cc\u003ey\u003c/c\u003e\u003c/a\u003e\u003c/r\u003e"},` +
	`{"id":"broken","c":"\u003cr\u003e\u003ca\u003e"}]}`

// TestRecoverOldEscapedPayload: a payload in the old escaped form still
// recovers its job with the same documents, as does the current form.
func TestRecoverOldEscapedPayload(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	s := mustSchema(t, e, dtd.Figure1, "r")
	docs := []Doc{
		{ID: "ok<&>", Content: `<r><a><c>x &amp; y</c><d></d></a></r>`},
		{ID: "notpv", Content: `<r><a><b>x</b><e></e><c>y</c></a></r>`},
		{ID: "broken", Content: `<r><a>`},
	}
	p := jobPayload{Op: "check", Schema: s.Ref, HasDefault: true}
	for _, d := range docs {
		p.Docs = append(p.Docs, payloadDoc{ID: d.ID, Content: d.Content})
	}
	old := fmt.Sprintf(oldPayload, s.Ref)
	if b, err := json.Marshal(p); err != nil || string(b) != old {
		t.Fatalf("fixture is not json.Marshal's form of the payload:\n%s\n%s", b, old)
	}
	cur, err := marshal(p)
	if err != nil || !bytes.Contains(cur, []byte(`"c":"<r><a><c>x &amp; y</c>`)) {
		t.Fatalf("current payload form: %s (%v)", cur, err)
	}
	want := e.checkChunk(s, docs, 0, len(docs), nil)
	for name, payload := range map[string][]byte{"old": []byte(old), "current": cur} {
		run, err := e.recoverRunner(jobs.Submission{Payload: payload, Total: len(docs)})
		if err != nil {
			t.Fatalf("%s payload: %v", name, err)
		}
		got, err := run(nil, 0, len(docs))
		if err != nil {
			t.Fatalf("%s payload: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s payload recovered\n%s\nwant\n%s", name, bytes.Join(got, []byte("\n")), bytes.Join(want, []byte("\n")))
		}
	}
}

// streamLineSurvives posts a header, a short document and a document
// longer than the scanner's 64 KB line buffer while every worker slot is
// held, so the first document runs only after the scanner has shifted the
// second line over the first one's bytes. The first document's answer
// must still be its own.
func streamLineSurvives(t *testing.T, route string, answer func(e *Engine, s *Schema, d Doc) any) {
	e := New(Config{Workers: 1})
	defer e.Close()
	s := mustSchema(t, e, dtd.Play, "play")
	docs := benchCorpus(3)
	first := docs[1] // stripped: valid under neither check nor completion as it stands
	second := Doc{ID: "long", Content: "<play>" + strings.Repeat("<title>x</title>", 5000) + "</play>"}
	// Lines without HTML escaping, as most clients send them: the content
	// is then plain, the case a view would take.
	var lines []string
	for _, v := range []any{map[string]string{"schema": dtd.Play, "root": "play"}, first, second} {
		b, err := marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	body := ndjson(lines...)

	for i := 0; i < cap(e.sem); i++ {
		e.sem <- struct{}{}
	}
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", route, pr)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		NewServer(e).ServeHTTP(rec, req)
		close(done)
	}()
	// A pipe write returns once the reader has taken every byte, so the
	// scanner has read (and shifted) past the first document by now.
	if _, err := io.WriteString(pw, body); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()
	for i := 0; i < cap(e.sem); i++ {
		<-e.sem
	}
	<-done

	out := ndjsonLines(rec.Body.Bytes())
	if len(out) != 3 {
		t.Fatalf("%s: %d lines: %s", route, len(out), rec.Body)
	}
	want, err := marshal(answer(e, s, first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], want) {
		t.Errorf("%s: first document answered\n %s\nwant\n %s", route, out[0], want)
	}
}

func TestCheckStreamLineSurvivesNextLine(t *testing.T) {
	streamLineSurvives(t, "/check/stream", func(e *Engine, s *Schema, d Doc) any {
		return toJSON(e.Check(s, d))
	})
}

func TestCompleteStreamLineSurvivesNextLine(t *testing.T) {
	streamLineSurvives(t, "/complete/stream", func(e *Engine, s *Schema, d Doc) any {
		return completeToJSON(e.Complete(s, d, true))
	})
}
