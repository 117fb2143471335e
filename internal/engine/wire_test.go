package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unicode"
	"unsafe"

	"repro/internal/dtd"
	"repro/internal/gen"
)

// wireShapes are the request shapes decodeRequest decodes by hand.
var wireShapes = []struct {
	name  string
	fresh func() any
}{
	{"check", func() any { return new(checkRequest) }},
	{"batch", func() any { return new(batchRequest) }},
	{"complete", func() any { return new(completeRequest) }},
	{"line", func() any { return new(streamLine) }},
}

// oracleDecode decodes body into dst the way the server did before the
// wire decoder: encoding/json, unknown fields refused.
func oracleDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// foldKey folds a key the way encoding/json matches it: each rune to the
// smallest rune of its simple case-folding orbit.
func foldKey(k string) string {
	var b strings.Builder
	for _, r := range k {
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		b.WriteRune(r)
	}
	return b.String()
}

// hasRepeatedKey reports whether some object in body's first JSON value
// holds two keys that select the same field.
func hasRepeatedKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct {
		obj, wantKey bool
		seen         map[string]bool
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if key, ok := tok.(string); ok {
				top := stack[n-1]
				if k := foldKey(key); top.seen[k] {
					return true
				} else {
					top.seen[k], top.wantKey = true, false
				}
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{obj: true, wantKey: true, seen: map[string]bool{}})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value just ended.
		if len(stack) == 0 {
			return false
		}
		if top := stack[len(stack)-1]; top.obj {
			top.wantKey = true
		}
	}
}

// clearContent zeroes the fields that may alias the body.
func clearContent(v any) {
	switch v := v.(type) {
	case *checkRequest:
		v.Document = ""
	case *batchRequest:
		for i := range v.Documents {
			v.Documents[i].Content = ""
		}
	case *completeRequest:
		for i := range v.Documents {
			v.Documents[i].Content = ""
		}
	case *streamLine:
		v.Content = ""
	}
}

// checkWireDecode holds decodeRequest to encoding/json on one body, for
// every shape: the same accept or reject, and on an accepted body without
// a repeated key the same value. It also clobbers the body after decoding:
// only document content may change with it.
func checkWireDecode(t *testing.T, body []byte) {
	repeated := hasRepeatedKey(body)
	for _, shape := range wireShapes {
		want := shape.fresh()
		wantErr := oracleDecode(body, want)
		data := bytes.Clone(body)
		got := shape.fresh()
		err := decodeRequest(data, got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s on %q: wire error %v, encoding/json error %v", shape.name, body, err, wantErr)
		}
		if err != nil || repeated {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %q:\n wire          %+v\n encoding/json %+v", shape.name, body, got, want)
		}
		for i := range data {
			data[i] = '#'
		}
		clearContent(got)
		clearContent(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %q: decoded value aliases the body: %+v", shape.name, body, got)
		}
	}
}

// wireSeeds cover the documented request examples, every escape,
// surrogates, invalid UTF-8, folded keys, nulls, type mismatches, syntax
// errors, trailing data and a byte-order mark.
var wireSeeds = []string{
	// docs/http-api.md
	`{"schema":  "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>", "kind": "dtd", "root": "r",
	  "options": {"MaxDepth": 0, "IgnoreWhitespaceText": false, "AllowAnyRoot": false}}`,
	`{"schema": "<!ELEMENT r EMPTY>", "root": "r", "document": "<r/>"}`,
	`{"schema": "<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>", "root": "r",
	  "diff": true, "documents": [{"id": "x", "content": "<r>text</r>"}]}`,
	`{"schema": "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>", "root": "r"}`,
	`{"id": "one", "content": "<r><a>hi</a></r>"}`,
	`{"id": "two", "content": "<r><a>", "schemaRef": "6915b2924ea56bb2"}`,
	`{"documents": [{"id": "a", "content": "<r/>", "schemaRef": "6915b292"}], "diff": false}`,
	`{"documents": []}`,
	"{\n\t\"root\" : \"r\" ,\r\n \"kind\":\"xsd\"\n}\n",
	`{"options": {"MaxDepth": 12, "DisableFastPath": true, "IgnoreWhitespaceText": true, "AllowAnyRoot": true}}`,
	// Escapes, surrogates and invalid UTF-8.
	`{"schema": "\"\\\/\b\f\n\r\t\u0041\u00e9\u4e2d\u0000\ufffd", "content": "a\u003cb\u003e\u0026"}`,
	`{"content": "\ud83d\ude00", "id": "\ud83d", "root": "\ude00", "kind": "\ud83d\u0041", "schema": "\ud83d\ud83d\ude00"}`,
	`{"content": "x\ud800\udbff\udc00", "document": "\uDBFF\uDFFF"}`,
	"{\"content\": \"\xff\xfe\", \"id\": \"\xe2\x82\", \"root\": \"\xed\xa0\x80\", \"schema\": \"\xc0\xaf\"}",
	"{\"document\": \"caf\xc3\xa9 \xef\xbf\xbd \xf0\x9f\x98\x80\"}",
	"{\"content\": \"\x7f\"}",
	// Keys: folded, escaped, unknown.
	`{"SCHEMA": "x", "Root": "r", "KIND": "dtd", "OPTIONS": {"maxdepth": 3, "ALLOWANYROOT": true}}`,
	`{"ſchema": "x", "\u212aind": "dtd", "ſchemaRef": "y", "Id": "z"}`,
	`{"\u0073chema": "x", "ro\u006ft": "r", "docu\u006dents": [{"\u0069d": "a"}]}`,
	`{"İd": "x"}`,
	`{"bogus": 1}`,
	`{"documents": [{"id": "a", "bytes": "eA=="}]}`,
	`{"Bytes": "eA=="}`,
	`{"-": 1}`,
	`{"schemaRequest": {}}`,
	`{"options": {"MaxDepth": 1, "Fast": true}}`,
	// Nulls.
	`null`,
	` null `,
	`{"schema": null, "documents": null, "diff": null, "options": null, "document": null}`,
	`{"documents": [null, {"id": null, "content": null, "schemaRef": null}]}`,
	`{"options": {"MaxDepth": null, "AllowAnyRoot": null}}`,
	`{"schema": "x", "schema": null}`,
	`{"diff": true, "diff": null}`,
	// Repeated keys (values are compared only without them).
	`{"documents": [{"id": "a", "content": "x"}], "documents": [{"id": "b"}]}`,
	`{"options": {"MaxDepth": 3}, "options": {"AllowAnyRoot": true}}`,
	`{"root": "a", "ROOT": "b"}`,
	// Type mismatches.
	`{"schema": 1}`, `{"schema": true}`, `{"schema": {}}`, `{"schema": []}`,
	`{"documents": {}}`, `{"documents": "x"}`, `{"documents": [1]}`, `{"documents": [[]]}`,
	`{"diff": "true"}`, `{"diff": 1}`, `{"options": []}`, `{"options": "x"}`,
	`{"options": {"MaxDepth": 1.5}}`, `{"options": {"MaxDepth": 1e2}}`, `{"options": {"MaxDepth": 1E+2}}`,
	`{"options": {"MaxDepth": -0}}`, `{"options": {"MaxDepth": -7}}`,
	`{"options": {"MaxDepth": 9223372036854775807}}`, `{"options": {"MaxDepth": 9223372036854775808}}`,
	`{"options": {"MaxDepth": -9223372036854775808}}`, `{"options": {"MaxDepth": "3"}}`,
	`{"options": {"AllowAnyRoot": 1}}`,
	`[]`, `"x"`, `1`, `true`, `false`,
	// Syntax errors.
	``, `   `, `{`, `{"root": "r"`, `{"root": "r",}`, `{"root" "r"}`, `{"root": "r" "kind": "x"}`,
	`{root: "r"}`, `{"root": 'r'}`, `{"options": {"MaxDepth": 01}}`, `{"options": {"MaxDepth": -}}`,
	`{"options": {"MaxDepth": 1.}}`, `{"diff": tru}`, `{"diff": nul}`, `{"documents": [{"id": "a"},]}`,
	`{"documents": [{"id": "a"} {"id": "b"}]}`,
	"{\"root\": \"a\x01b\"}", "{\"ro\x1fot\": \"r\"}", `{"root": "\u12"}`, `{"root": "\q"}`, `{"root": "\u00zz"}`,
	`{"root": "abc`, `{"root": "abc\`,
	// Trailing data, and a byte-order mark.
	`{"root": "r"} trailing`, `{"root": "r"}{"root": "s"}`, `null garbage`, `nullx`, `{}]`,
	"\xef\xbb\xbf{\"root\": \"r\"}",
	// Strings whose special bytes sit at every offset of an 8-byte word.
	`{"content": "0123456\"7", "id": "0123456789abcde\\n"}`,
	`{"content": "01234567", "schema": "012345678", "root": "0123456789abcdef\u00e9"}`,
	"{\"content\": \"0123456\xe9\", \"id\": \"01234567\xc3\xa9\"}",
	escapeAtEveryOffset(),
}

// escapeAtEveryOffset is a /batch body whose k-th document holds an
// escape of every kind at offset k of an 8-byte word, after runs that
// fill a word and runs that do not.
func escapeAtEveryOffset() string {
	var b strings.Builder
	b.WriteString(`{"documents":[`)
	for k := 0; k < 8; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		p := "01234567"[:k]
		fmt.Fprintf(&b, "{\"id\":\"%s\\u003c\",\"content\":\"%s\\n%s\\u00e9%s\\ud83d\\ude00%s\\\"%s\\\\0123456789\\u0026%s\\ud83d%s\\t\xff%s\"}",
			p, p, p, p, p, p, p, p, p)
	}
	b.WriteString(`]}`)
	return b.String()
}

func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Add(servebenchBody(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body)
	})
}

// servebenchBody is a /batch body shaped like servebench's: the Play DTD
// inline and a few stripped Play documents.
func servebenchBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(3))
	d := dtd.MustParse(dtd.Play)
	req := batchRequest{schemaRequest: schemaRequest{Schema: dtd.Play, Root: "play"}}
	for i := 0; i < 3; i++ {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 6, MaxRepeat: 2})
		gen.Strip(rng, doc, 0.3)
		req.Documents = append(req.Documents, Doc{ID: string(rune('a' + i)), Content: doc.String()})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestWireDecodeEveryField fills every field of every shape (found by
// reflection, so a field added later is covered too), encodes the value
// with encoding/json and decodes it back through the wire decoder.
func TestWireDecodeEveryField(t *testing.T) {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			n++
			v.SetString("s<&>" + string(rune('a'+n%26)))
		case reflect.Int:
			n++
			v.SetInt(int64(n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				return // Doc.Bytes never travels
			}
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		default:
			t.Fatalf("field kind %s has no filler", v.Kind())
		}
	}
	for _, shape := range wireShapes {
		want := shape.fresh()
		fill(reflect.ValueOf(want).Elem())
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := shape.fresh()
		if err := decodeRequest(body, got); err != nil {
			t.Fatalf("%s: %v on %s", shape.name, err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded\n %+v\nwant\n %+v", shape.name, got, want)
		}
	}
}

// TestWireRepeatedKeyReplaces pins the first deliberate divergence: a
// repeated key replaces the earlier value whole, where encoding/json
// merges the second value into the first.
func TestWireRepeatedKeyReplaces(t *testing.T) {
	body := []byte(`{"documents":[{"id":"a","content":"x"}],"documents":[{"id":"b"}],` +
		`"options":{"MaxDepth":3},"options":{"AllowAnyRoot":true}}`)
	var got, merged batchRequest
	if err := decodeRequest(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := oracleDecode(body, &merged); err != nil {
		t.Fatal(err)
	}
	if want := []Doc{{ID: "b"}}; !reflect.DeepEqual(got.Documents, want) {
		t.Errorf("documents = %+v, want %+v", got.Documents, want)
	}
	if want := (CompileOptions{AllowAnyRoot: true}); got.Options != want {
		t.Errorf("options = %+v, want %+v", got.Options, want)
	}
	// encoding/json, for the record.
	if want := []Doc{{ID: "b", Content: "x"}}; !reflect.DeepEqual(merged.Documents, want) {
		t.Errorf("encoding/json documents = %+v, want %+v", merged.Documents, want)
	}
	if want := (CompileOptions{MaxDepth: 3, AllowAnyRoot: true}); merged.Options != want {
		t.Errorf("encoding/json options = %+v, want %+v", merged.Options, want)
	}
}

// TestWireRepeatedNull pins null after a value under a repeated key, where
// the wire decoder and encoding/json agree: null sets documents and diff
// to nil and leaves every other field as it was.
func TestWireRepeatedNull(t *testing.T) {
	for _, body := range []string{
		`{"documents":[{"id":"a"}],"documents":null,"diff":true,"diff":null}`,
		`{"schema":"x","schema":null,"options":{"MaxDepth":3},"options":null,"root":"r","ROOT":null}`,
		`{"documents":[{"id":"a","content":"x","id":null,"content":null}]}`,
	} {
		var got, want completeRequest
		if err := decodeRequest([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := oracleDecode([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n wire          %+v\n encoding/json %+v", body, got, want)
		}
	}
}

// bodyOver is a reader of a complete /check body followed by pad bytes of
// whitespace, n bytes in all.
func bodyOver(prefix string, n int64) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), io.LimitReader(spaces{}, n-int64(len(prefix))))
}

type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestWireOversizedBodyIs413 pins the second deliberate divergence: a body
// over MaxRequestBytes is a 413 even when a complete value comes first
// (encoding/json's streaming decoder stopped reading at the value's end
// and answered it).
func TestWireOversizedBodyIs413(t *testing.T) {
	h := NewServer(New(Config{Workers: 1}))
	prefix := `{"schema":"<!ELEMENT r EMPTY>","root":"r","document":"<r/>"}`
	// Declared over the cap: refused before a byte is read.
	req := httptest.NewRequest("POST", "/check", bodyOver(prefix, MaxRequestBytes+1))
	req.ContentLength = MaxRequestBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize: %d %s", rec.Code, rec.Body)
	}
	// Chunked (no length), over the cap as it arrives.
	req = httptest.NewRequest("POST", "/check", bodyOver(prefix, MaxRequestBytes+1))
	req.ContentLength = -1
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize: %d %s", rec.Code, rec.Body)
	}
	// At the cap exactly it is answered.
	req = httptest.NewRequest("POST", "/check", bodyOver(prefix, MaxRequestBytes))
	req.ContentLength = MaxRequestBytes
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("body at the cap: %d %s", rec.Code, rec.Body)
	}
}

// TestReadBody covers the body reader: declared and undeclared lengths,
// reads of every size, bodies past bodyStep, the cap, and a length header
// that promises far more than arrives.
func TestReadBody(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 511, 512, 513, 70_000, bodyStep - 1, bodyStep, bodyStep + 1, 3*bodyStep + 5} {
		want := make([]byte, size)
		rng.Read(want)
		for _, declared := range []bool{true, false} {
			for _, r := range []io.Reader{bytes.NewReader(want), iotest.HalfReader(bytes.NewReader(want))} {
				req := httptest.NewRequest("POST", "/", r)
				req.ContentLength = -1
				if declared {
					req.ContentLength = int64(size)
				}
				got, err := readBody(httptest.NewRecorder(), req, 4*bodyStep)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("size %d declared %v: %d bytes, %v", size, declared, len(got), err)
				}
			}
		}
	}
	// Over the limit, declared or not.
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", 101)))
		if !declared {
			req.ContentLength = -1
		}
		var tooLarge *http.MaxBytesError
		if _, err := readBody(httptest.NewRecorder(), req, 100); !errors.As(err, &tooLarge) {
			t.Errorf("101 bytes over a limit of 100 (declared %v): %v", declared, err)
		}
	}
	// A header alone costs no more than bodyStep.
	req := httptest.NewRequest("POST", "/", strings.NewReader(`{"root":"r"}`))
	req.ContentLength = MaxRequestBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readBody(httptest.NewRecorder(), req, MaxRequestBytes)
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != `{"root":"r"}` {
		t.Fatalf("short body under a large header: %q, %v", got, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*bodyStep {
		t.Errorf("a %d-byte Content-Length with 12 bytes sent allocated %d bytes", MaxRequestBytes, alloc)
	}
}

// within reports whether s's bytes lie inside buf.
func within(s string, buf []byte) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestWireViews pins which strings alias the body: plain document content
// only.
func TestWireViews(t *testing.T) {
	body := []byte(`{"schema":"<!ELEMENT r EMPTY>","root":"r","kind":"dtd","documents":[` +
		`{"id":"plain","content":"<r/>","schemaRef":"abcdef12"},` +
		`{"id":"escaped","content":"<r a=\"1\"/>"},` +
		"{\"id\":\"badutf8\",\"content\":\"<r>\xff</r>\"}]}")
	var req batchRequest
	if err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{req.Schema, req.Root, req.Kind, req.Documents[0].ID, req.Documents[0].SchemaRef} {
		if within(s, body) {
			t.Errorf("%q aliases the body", s)
		}
	}
	if !within(req.Documents[0].Content, body) {
		t.Error("plain content was copied")
	}
	if within(req.Documents[1].Content, body) || req.Documents[1].Content != `<r a="1"/>` {
		t.Errorf("escaped content %q aliases the body or decoded wrong", req.Documents[1].Content)
	}
	if within(req.Documents[2].Content, body) || req.Documents[2].Content != "<r>\uFFFD</r>" {
		t.Errorf("invalid UTF-8 content %q aliases the body or decoded wrong", req.Documents[2].Content)
	}
	var check checkRequest
	if err := decodeRequest([]byte(`{"document":"<r/>"}`), &check); err != nil || check.Document != "<r/>" {
		t.Fatalf("check document %q, %v", check.Document, err)
	}
	line := []byte(`{"id":"a","content":"<r/>"}`)
	var ln streamLine
	if err := decodeRequest(line, &ln); err != nil || !within(ln.Content, line) || within(ln.ID, line) {
		t.Errorf("stream line id %q, content %q: only content may alias the line (%v)", ln.ID, ln.Content, err)
	}
}

// BenchmarkWireDecode decodes a 128-document /batch body shaped like
// servebench's jobs_durable requests (encoded without HTML escaping, as
// non-Go clients send it), through the wire decoder and through
// encoding/json; wire-escaped decodes the same body as json.Marshal
// writes it, every < and > a \u escape.
func BenchmarkWireDecode(b *testing.B) {
	req := batchRequest{schemaRequest: schemaRequest{Schema: dtd.Play, Root: "play"}, Documents: benchCorpus(128)}
	body, err := marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	escaped, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wire-escaped", func(b *testing.B) {
		b.SetBytes(int64(len(escaped)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req batchRequest
			if err := decodeRequest(escaped, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req batchRequest
			if err := decodeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req batchRequest
			if err := oracleDecode(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
