package engine

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dtd"
)

// postRaw sends a raw-XML /check/raw request with optional headers.
func postRaw(t *testing.T, h http.Handler, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func rawResult(t *testing.T, rec *httptest.ResponseRecorder) resultJSON {
	t.Helper()
	var res resultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad verdict body %.200s: %v", rec.Body, err)
	}
	return res
}

func TestCheckRawVerdicts(t *testing.T) {
	e := New(Config{Workers: 2})
	s, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(e)
	ref := s.Ref[:16]

	rec := postRaw(t, h, "/check/raw?schemaRef="+ref+"&id=doc-1", []byte(`<r><a><c>x</c><d></d></a></r>`), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	res := rawResult(t, rec)
	if !res.PotentiallyValid || !res.Valid || res.ID != "doc-1" || res.Error != "" {
		t.Errorf("valid doc: %+v", res)
	}

	// Same schema via the header spelling; a PV violation comes back as a
	// typed detail, not an HTTP error.
	rec = postRaw(t, h, "/check/raw", []byte(`<r><a><b>x</b><e></e><c>y</c></a></r>`), map[string]string{"X-Schema-Ref": ref})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if res = rawResult(t, rec); res.PotentiallyValid || res.Detail == "" {
		t.Errorf("violation doc: %+v", res)
	}

	// Malformed XML: still a 200 with the lexical error in the verdict.
	rec = postRaw(t, h, "/check/raw?schemaRef="+ref, []byte(`<r><a>`), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if res = rawResult(t, rec); res.Error == "" || res.PotentiallyValid {
		t.Errorf("malformed doc: %+v", res)
	}

	if stats := e.Stats(); stats.Docs != 3 || stats.PotentiallyValid != 1 || stats.Malformed != 1 {
		t.Errorf("lifetime stats: %+v", stats)
	}
}

// TestCheckRawContract pins the 400/404/415 error contract.
func TestCheckRawContract(t *testing.T) {
	e := New(Config{Workers: 2})
	if _, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	h := NewServer(e)

	if rec := postRaw(t, h, "/check/raw", []byte(`<r></r>`), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing ref: status %d, want 400", rec.Code)
	}
	if rec := postRaw(t, h, "/check/raw?schemaRef="+strings.Repeat("0", 16), []byte(`<r></r>`), nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown ref: status %d, want 404", rec.Code)
	}
	rec := postRaw(t, h, "/check/raw?schemaRef=whatever", []byte(`<r></r>`), map[string]string{"Content-Encoding": "br"})
	if rec.Code != http.StatusNotFound && rec.Code != http.StatusUnsupportedMediaType {
		t.Errorf("bad encoding: status %d", rec.Code)
	}
}

// TestCheckRawGzip streams a gzip-compressed body through the shared
// inflate path; the verdict (and byte accounting) applies to inflated data.
func TestCheckRawGzip(t *testing.T) {
	e := New(Config{Workers: 2})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(e)

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	fmt.Fprint(zw, `<play><title>t</title><act><title>a</title><scene><title>s</title><speech><speaker>x</speaker><line>l</line></speech></scene></act></play>`)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	rec := postRaw(t, h, "/check/raw?schemaRef="+s.Ref[:16], buf.Bytes(), map[string]string{"Content-Encoding": "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if res := rawResult(t, rec); !res.PotentiallyValid {
		t.Errorf("gzip doc: %+v", res)
	}

	if rec := postRaw(t, h, "/check/raw?schemaRef="+s.Ref[:16], []byte("not gzip"), map[string]string{"Content-Encoding": "gzip"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad gzip: status %d, want 400", rec.Code)
	}
}

// TestConfigMaxDocBytes exercises the configurable NDJSON per-document cap:
// a tiny cap rejects a small streamed document with 413, while /check/raw
// on the same engine happily checks a body far beyond the cap.
func TestConfigMaxDocBytes(t *testing.T) {
	e := New(Config{Workers: 2, MaxDocBytes: 128})
	s, err := e.Compile(DTDSource, dtd.Figure1, "r", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxDocBytes() != 128 {
		t.Fatalf("MaxDocBytes() = %d", e.MaxDocBytes())
	}
	h := NewServer(e)

	doc := `<r><a><c>` + strings.Repeat("x", 256) + `</c><d></d></a></r>`
	body := ndjson(header(t, dtd.Figure1, "r"), docLine(t, "big", doc, ""))
	if rec := post(t, h, "/check/stream", body); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("stream over cap: status %d, want 413", rec.Code)
	}

	big := `<r><a><c>` + strings.Repeat("y", 1<<20) + `</c><d></d></a></r>`
	rec := postRaw(t, h, "/check/raw?schemaRef="+s.Ref[:16], []byte(big), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("raw over cap: status %d: %.200s", rec.Code, rec.Body)
	}
	if res := rawResult(t, rec); !res.PotentiallyValid {
		t.Errorf("raw over cap: %+v", res)
	}

	// Zero keeps the 64MB default.
	if New(Config{Workers: 1}).MaxDocBytes() != MaxDocumentBytes {
		t.Error("default MaxDocBytes should be MaxDocumentBytes")
	}
}
