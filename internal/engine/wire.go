package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The request decoder. The bodies that carry documents — checkRequest,
// batchRequest, completeRequest and streamLine — are decoded here by hand,
// with no reflection. A string without escapes is read once; one with
// escapes is read twice, once to find its end and once to unescape it.
// encoding/json reads every byte twice (once to find the value, once to
// decode it) and was a quarter of the server's CPU on durable batch jobs.
// Everything else (the /verify body, recovered job payloads) stays on
// encoding/json.
//
// The semantics are encoding/json's with DisallowUnknownFields, decoding
// into a fresh value, and FuzzWireDecode holds the two to the same answer:
//   - a key selects a field exactly or else by bytes.EqualFold ("ſchema"
//     selects schema), after unescaping; an unknown key is an error;
//   - null leaves a field as it is, except documents and diff, which it
//     sets to nil;
//   - a value of the wrong JSON type is an error; options.MaxDepth takes
//     an integer only (no fraction, no exponent, within int);
//   - invalid UTF-8 and unpaired surrogates decode to U+FFFD;
//   - anything after the top-level value is ignored.
//
// Two differences are deliberate. A repeated key replaces the earlier
// value whole, where encoding/json merges into it (a second "documents"
// array does not inherit fields from the first). And a body over
// MaxRequestBytes is refused even when a complete value comes first, since
// readBody reads the body whole before decoding.
//
// A content (or /check document) string with no escape and valid UTF-8 is
// returned as a read-only view of the body — the mirror of xmltext.View —
// so a document reaches the checker without a copy. Every other string is
// copied: the registry keeps root in its cache key and dtd.Parse keeps
// substrings of the schema source, so a view there would pin a whole body
// for the life of the cache. The NDJSON routes decode a copy of each
// line, because bufio.Scanner reuses its line buffer while earlier
// documents are still being checked.

// bodyStep caps the first body buffer: a Content-Length header alone
// never costs more than this.
const bodyStep = 1 << 20

// readBody reads r's body whole into one buffer, refusing a body over
// limit bytes with an *http.MaxBytesError. The buffer is sized from
// Content-Length, capped at bodyStep; past that, append grows it in step
// with the bytes received.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	src := http.MaxBytesReader(w, r.Body, limit)
	// One byte past the declared length lets the read that sees EOF land
	// without growing the buffer.
	size := 512
	if r.ContentLength >= 0 {
		size = int(r.ContentLength) + 1
	}
	buf := make([]byte, 0, min(size, bodyStep))
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRequest decodes one request body into dst. The document-carrying
// shapes (*checkRequest, *batchRequest, *completeRequest, *streamLine) go
// through the wire decoder, and their document content may alias data,
// which must then never change again. Any other dst is decoded by
// encoding/json, rejecting unknown fields.
func decodeRequest(data []byte, dst any) error {
	var fields wireField
	switch dst.(type) {
	case *checkRequest:
		fields = schemaFields | fDocument
	case *batchRequest:
		fields = schemaFields | fDocuments
	case *completeRequest:
		fields = schemaFields | fDocuments | fDiff
	case *streamLine:
		fields = schemaFields | fID | fContent | fSchemaRef
	default:
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return dec.Decode(dst)
	}
	var req wireRequest
	d := wireDecoder{data: data}
	if err := d.request(&req, fields); err != nil {
		return err
	}
	switch dst := dst.(type) {
	case *checkRequest:
		*dst = checkRequest{schemaRequest: req.schemaRequest, Document: req.Document}
	case *batchRequest:
		*dst = batchRequest{schemaRequest: req.schemaRequest, Documents: req.Documents}
	case *completeRequest:
		*dst = completeRequest{schemaRequest: req.schemaRequest, Documents: req.Documents, Diff: req.Diff}
	case *streamLine:
		*dst = streamLine{Schema: req.Schema, Kind: req.Kind, Root: req.Root, Options: req.Options,
			ID: req.ID, Content: req.Content, SchemaRef: req.SchemaRef}
	}
	return nil
}

// wireRequest holds every field the decoded shapes carry; each shape
// allows a subset.
type wireRequest struct {
	schemaRequest
	Document  string
	Documents []Doc
	Diff      *bool
	ID        string
	Content   string
	SchemaRef string
}

// wireField is a set of request fields, bit i naming wireNames[i].
type wireField uint

const (
	fSchema wireField = 1 << iota
	fKind
	fRoot
	fOptions
	fDocument
	fDocuments
	fDiff
	fID
	fContent
	fSchemaRef

	schemaFields = fSchema | fKind | fRoot | fOptions
	docFields    = fID | fContent | fSchemaRef
)

// wireNames are the JSON names of the wireField bits, in bit order; the
// document objects inside "documents" use the id, content and schemaRef
// names too.
var wireNames = []string{"schema", "kind", "root", "options", "document", "documents", "diff", "id", "content", "schemaRef"}

// optionNames are CompileOptions' JSON names (its Go field names).
var optionNames = []string{"MaxDepth", "IgnoreWhitespaceText", "AllowAnyRoot", "DisableFastPath"}

// match returns the index in names of the field key selects among the
// bits set in allowed: an exact match first, then a case-insensitive one,
// as encoding/json matches keys. -1 when none matches.
func match(key []byte, names []string, allowed wireField) int {
	for i, n := range names {
		if allowed&(1<<i) != 0 && string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if allowed&(1<<i) != 0 && bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// wireDecoder reads one JSON value from data.
type wireDecoder struct {
	data []byte
	pos  int
	key  []byte // scratch for keys with escapes
}

// request reads the top-level value: an object of the allowed fields, or
// null. Whatever follows it is ignored.
func (d *wireDecoder) request(req *wireRequest, allowed wireField) error {
	d.ws()
	if d.pos == len(d.data) {
		return io.EOF
	}
	return d.fields(req, allowed, "the request")
}

// fields reads an object of the allowed fields into req, or null, which
// leaves req as it is. what names the value in errors.
func (d *wireDecoder) fields(req *wireRequest, allowed wireField, what string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '{' {
		return d.mismatch(what, "object")
	}
	return d.object(wireNames, allowed, func(i int) error {
		switch wireField(1) << i {
		case fSchema:
			return d.str(&req.Schema, false)
		case fKind:
			return d.str(&req.Kind, false)
		case fRoot:
			return d.str(&req.Root, false)
		case fOptions:
			return d.options(&req.Options)
		case fDocument:
			return d.str(&req.Document, true)
		case fDocuments:
			return d.docs(&req.Documents)
		case fDiff:
			return d.optBool(&req.Diff)
		case fID:
			return d.str(&req.ID, false)
		case fContent:
			return d.str(&req.Content, true)
		default: // fSchemaRef
			return d.str(&req.SchemaRef, false)
		}
	})
}

// docs reads the documents array; null sets it to nil, and an empty array
// to an empty, non-nil slice. A null document is a zero Doc.
func (d *wireDecoder) docs(dst *[]Doc) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.peek() != '[' {
		return d.mismatch("documents", "array")
	}
	d.pos++
	d.ws()
	docs := []Doc{}
	if d.peek() == ']' {
		d.pos++
		*dst = docs
		return nil
	}
	for {
		var doc wireRequest
		if err := d.fields(&doc, docFields, "a document"); err != nil {
			return err
		}
		docs = append(docs, Doc{ID: doc.ID, Content: doc.Content, SchemaRef: doc.SchemaRef})
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case ']':
			d.pos++
			*dst = docs
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// options reads the compile options; null leaves them as they are.
func (d *wireDecoder) options(dst *CompileOptions) error {
	if d.null() {
		return nil
	}
	if d.peek() != '{' {
		return d.mismatch("options", "object")
	}
	*dst = CompileOptions{}
	return d.object(optionNames, 1<<len(optionNames)-1, func(i int) error {
		switch i {
		case 0:
			return d.integer(&dst.MaxDepth)
		case 1:
			return d.boolean(&dst.IgnoreWhitespaceText)
		case 2:
			return d.boolean(&dst.AllowAnyRoot)
		default:
			return d.boolean(&dst.DisableFastPath)
		}
	})
}

// object reads the object at d.pos (a '{'), calling field with the index
// in names of each key; field reads the value.
func (d *wireDecoder) object(names []string, allowed wireField, field func(i int) error) error {
	d.pos++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.readKey()
		if err != nil {
			return err
		}
		i := match(key, names, allowed)
		if i < 0 {
			return fmt.Errorf("json: unknown field %q", key)
		}
		d.ws()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		d.ws()
		if err := field(i); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// str reads a string field; null leaves it as it is. With view the
// result may alias d.data.
func (d *wireDecoder) str(dst *string, view bool) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.mismatch("a string field", "string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return err
	}
	switch {
	case plain && view:
		*dst = unsafe.String(unsafe.SliceData(raw), len(raw))
	case plain:
		*dst = string(raw)
	default:
		// Fresh memory the string then owns: no second copy.
		out := appendUnquoted(make([]byte, 0, len(raw)), raw)
		*dst = unsafe.String(unsafe.SliceData(out), len(out))
	}
	return nil
}

// readKey reads an object key, unescaped. The result is valid until the
// next key.
func (d *wireDecoder) readKey() ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.key = appendUnquoted(d.key[:0], raw)
	return d.key, nil
}

// boolean reads a bool field; null leaves it as it is.
func (d *wireDecoder) boolean(dst *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.mismatch("a bool field", "bool")
	}
	return nil
}

// optBool reads the diff switch: null sets it to nil.
func (d *wireDecoder) optBool(dst **bool) error {
	if d.null() {
		*dst = nil
		return nil
	}
	b := new(bool)
	if err := d.boolean(b); err != nil {
		return err
	}
	*dst = b
	return nil
}

// integer reads an int field; null leaves it as it is. A number that
// overflows int is refused here, and one with a fraction or an exponent by
// the caller, which finds '.', 'e' or 'E' where a ',' or '}' must follow.
func (d *wireDecoder) integer(dst *int) error {
	if d.null() {
		return nil
	}
	start, i := d.pos, d.pos
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	if i == len(d.data) || d.data[i] < '0' || d.data[i] > '9' {
		return d.mismatch("an int field", "number")
	}
	if d.data[i] == '0' {
		i++
	} else {
		for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	}
	n, err := strconv.Atoi(string(d.data[start:i]))
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into an int field", d.data[start:i])
	}
	*dst = n
	d.pos = i
	return nil
}

// scanString reads the string at d.pos (a '"') and returns its raw
// interior. plain reports that the interior has no escape and is valid
// UTF-8, so it is the string's value as it stands.
func (d *wireDecoder) scanString() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.pos + 1
	plain = true
	for i := start; ; {
		i = plainEnd(data, i)
		if i == len(data) {
			return nil, false, d.eof()
		}
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(data) {
				return nil, false, d.eof()
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k == len(data) {
						return nil, false, d.eof()
					}
					if hexVal(data[k]) < 0 {
						d.pos = k
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax("in string literal")
		default: // not ASCII
			if !plain {
				i++
				break
			}
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
}

// appendUnquoted appends the value of a string interior scanString
// accepted: escapes decoded, and each invalid UTF-8 byte and each unpaired
// surrogate replaced by U+FFFD, as encoding/json does.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch raw[i+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if r < utf8.RuneSelf {
					dst = append(dst, byte(r))
					continue
				}
				if utf16.IsSurrogate(r) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(raw[i+2:])); pair != utf8.RuneError {
							dst = utf8.AppendRune(dst, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, raw[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(raw) && raw[j] != '\\' && raw[j] < utf8.RuneSelf {
				j++
			}
			dst = append(dst, raw[i:j]...)
			i = j
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, raw[i:i+size]...)
			}
			i += size
		}
	}
	return dst
}

// plainEnd returns the index of the first byte at or after i that a string
// scan must look at — '"', '\\', a control byte or a non-ASCII byte — or
// len(b). It tests eight bytes at a time: in each test the lowest flagged
// byte is exact, since a borrow only runs upward from a true match.
func plainEnd(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		q := x ^ (ones * '"')
		s := x ^ (ones * '\\')
		t := (x-ones*' ')&^x | (q-ones)&^q | (s-ones)&^s | x
		if t &= highs; t != 0 {
			return i + bits.TrailingZeros64(t)/8
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return i
		}
	}
	return i
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// hex4 reads four hex digits scanString has checked.
func hex4(b []byte) rune {
	return rune(hexVal(b[0])<<12 | hexVal(b[1])<<8 | hexVal(b[2])<<4 | hexVal(b[3]))
}

func (d *wireDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the data.
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// literal consumes lit when the data continues with it.
func (d *wireDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *wireDecoder) null() bool { return d.literal("null") }

func (d *wireDecoder) eof() error { return errors.New("unexpected end of JSON input") }

// syntax reports the byte at d.pos as out of place.
func (d *wireDecoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return d.eof()
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.pos], context, d.pos)
}

// mismatch reports a value that is not of the JSON type what needs.
func (d *wireDecoder) mismatch(what, want string) error {
	if d.pos >= len(d.data) {
		return d.eof()
	}
	return fmt.Errorf("json: %s must be a JSON %s (offset %d)", what, want, d.pos)
}
