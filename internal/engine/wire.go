package engine

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The request decoder. The bodies that carry documents — checkRequest,
// batchRequest, completeRequest and streamLine — are decoded here by hand,
// with no reflection. Every string is read once: one with escapes is
// unescaped as the scan goes, from its first escape on. encoding/json
// reads every byte twice (once to find the value, once to decode it) and
// was a quarter of the server's CPU on durable batch jobs.
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
	buf  []byte // scanString's scratch for strings with escapes
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
	val, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if plain && view {
		*dst = unsafe.String(unsafe.SliceData(val), len(val))
	} else {
		*dst = string(val)
	}
	return nil
}

// readKey reads an object key, unescaped. The result is valid until the
// next string.
func (d *wireDecoder) readKey() ([]byte, error) {
	val, _, err := d.scanString()
	return val, err
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

// scanString reads the string at d.pos (a '"') in one pass. A string
// with no escape and valid UTF-8 comes back as its interior, a view of
// d.data, with plain set. Any other comes back unescaped into d.buf, valid
// until the next call: from the first backslash or invalid byte on, the
// scan copies and decodes as it goes, each escape decoded, and each
// invalid UTF-8 byte and each unpaired surrogate replaced by U+FFFD, as
// encoding/json does.
func (d *wireDecoder) scanString() (val []byte, plain bool, err error) {
	data := d.data
	start := d.pos + 1
	i := start
	for {
		i = plainEnd(data, i)
		if i == len(data) {
			return nil, false, d.eof()
		}
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return data[start:i], true, nil
		}
		if c == '\\' {
			break
		}
		if c < ' ' {
			d.pos = i
			return nil, false, d.syntax("in string literal")
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	buf := append(d.buf[:0], data[start:i]...)
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			d.buf = buf
			return buf, false, nil
		case c == '\\':
			if i+1 == len(data) {
				return nil, false, d.eof()
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, ok := hex4(data, i+2)
				if !ok {
					return nil, false, d.badHex(i + 2)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair takes the next escape too; anything else
					// leaves it to the next step.
					var lo rune
					ok = i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u'
					if ok {
						lo, ok = hex4(data, i+2)
					}
					if r = utf16.DecodeRune(r, lo); ok && r != utf8.RuneError {
						i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
				continue
			default:
				d.pos = i + 1
				return nil, false, d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			j := plainEnd(data, i+1)
			buf = append(buf, data[i:j]...)
			i = j
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
			} else {
				buf = append(buf, data[i:i+size]...)
			}
			i += size
		}
	}
	return nil, false, d.eof()
}

// plainEnd returns the index of the first byte at or after i that a string
// scan must look at — '"', '\\', a control byte or a non-ASCII byte — or
// len(b). It tests eight bytes at a time: in each test the lowest flagged
// byte is exact, since a borrow only runs upward from a true match. The
// decoder reads JSON strings with it and the writer escapes them with it.
func plainEnd[S string | []byte](b S, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		w := b[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
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

// hexDigit holds each byte's value as a hex digit, or -1.
var hexDigit = func() (t [256]int8) {
	for c := range t {
		t[c] = -1
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = int8(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = int8(c-'a') + 10
		t[c-'a'+'A'] = int8(c-'a') + 10
	}
	return t
}()

// hex4 reads the four hex digits of a \u escape at data[i:]; ok is
// false when one is missing or not a hex digit.
func hex4(data []byte, i int) (r rune, ok bool) {
	if i+4 > len(data) {
		return 0, false
	}
	a, b, c, e := hexDigit[data[i]], hexDigit[data[i+1]], hexDigit[data[i+2]], hexDigit[data[i+3]]
	if a|b|c|e < 0 {
		return 0, false
	}
	return rune(a)<<12 | rune(b)<<8 | rune(c)<<4 | rune(e), true
}

// badHex reports the \u escape whose digits start at data[i]: the end
// of the data, or the first byte that is not a hex digit.
func (d *wireDecoder) badHex(i int) error {
	for d.pos = i; d.pos < len(d.data) && d.pos < i+4; d.pos++ {
		if hexDigit[d.data[d.pos]] < 0 {
			return d.syntax("in \\u hexadecimal character escape")
		}
	}
	return d.eof()
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

// The reply writer, the encoder half of the wire. Every JSON value the
// server writes whose size grows with its documents is appended here by
// hand, with no reflection, into one buffer sized once from those
// documents (an escape past the allowance grows it):
//   - verdicts (appendResult) and completions (appendCompletion), as
//     /check, /check/raw, the NDJSON streams and job result lines carry
//     them;
//   - the /batch and /complete replies (encodeReply), receipt included;
//   - receipts (appendReceipt), in replies and stored with async jobs;
//   - an async job's write-ahead payload (appendJobPayload).
//
// The bytes are exactly those newEncoder writes for the reflection structs
// the routes encoded before: compact, omitempty as their tags say, strings
// escaped by appendString. Those structs are the writer's test oracle
// (wire_encode_test.go), and FuzzWireEncode holds the two equal. A reply
// and an NDJSON line end in the newline Encode adds; a stored result line,
// receipt or payload does not. What else the server writes — error bodies,
// the 202, /stats, /jobs, /schemas, the /verify reply, the stats in a
// reply and the streams' stats line — is small or rare and stays on
// encoding/json, as does the decoding of a payload at recovery.

// Allowances for the keys, numbers and punctuation of one record beside
// its strings, from which the writer sizes its buffers; errAllowance
// stands for an error's text, which the sizing does not render.
const (
	resultAllowance    = 96
	insertionAllowance = 48
	proofAllowance     = 96
	payloadAllowance   = 32
	errAllowance       = 128
	replyAllowance     = 512
)

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it with SetEscapeHTML(false): \" and \\, \b \f \n
// \r \t, \u00XX for the other bytes below 0x20, \ufffd for each byte of
// invalid UTF-8, and \u2028 and \u2029; <, > and & stay raw. Runs that
// need no escape are skipped by plainEnd's word test.
func appendString[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := plainEnd(s, 0); i < len(s); i = plainEnd(s, i) {
		if c := s[i]; c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendField appends key, which carries its own comma and colon, and the
// string s.
func appendField(dst []byte, key, s string) []byte {
	return appendString(append(dst, key...), s)
}

// appendOmit is appendField for an omitempty string: nothing when s is
// empty.
func appendOmit(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendField(dst, key, s)
}

// appendInt appends key and the integer n.
func appendInt(dst []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendBool appends key and b.
func appendBool(dst []byte, key string, b bool) []byte {
	return strconv.AppendBool(append(dst, key...), b)
}

// appendErr appends an omitempty "error" field holding err's text.
func appendErr(dst []byte, err error) []byte {
	if err == nil {
		return dst
	}
	return appendOmit(dst, `,"error":`, err.Error())
}

// appendHead opens a verdict or a completion: its id when set, then its
// index.
func appendHead(dst []byte, id string, index int) []byte {
	dst = append(dst, '{')
	if id != "" {
		dst = append(appendField(dst, `"id":`, id), ',')
	}
	return appendInt(dst, `"index":`, int64(index))
}

// appendResult appends r as /check answers it.
func appendResult(dst []byte, r *Result) []byte {
	dst = appendHead(dst, r.ID, r.Index)
	dst = appendBool(dst, `,"potentiallyValid":`, r.PotentiallyValid)
	dst = appendBool(dst, `,"valid":`, r.Valid)
	dst = appendOmit(dst, `,"detail":`, r.Detail)
	dst = appendErr(dst, r.Err)
	return append(dst, '}')
}

// resultSize is the room appendResult needs for r, escapes aside.
func resultSize(r *Result) int {
	n := resultAllowance + len(r.ID) + len(r.Detail)
	if r.Err != nil {
		n += errAllowance
	}
	return n
}

// appendCompletion appends r as /complete answers it, with its insertion
// records.
func appendCompletion(dst []byte, r *CompleteResult) []byte {
	dst = appendHead(dst, r.ID, r.Index)
	dst = appendBool(dst, `,"completed":`, r.Completed)
	if r.AlreadyValid {
		dst = append(dst, `,"alreadyValid":true`...)
	}
	dst = appendInt(dst, `,"inserted":`, int64(r.Inserted))
	if len(r.Insertions) > 0 {
		dst = append(dst, `,"insertions":[`...)
		for i := range r.Insertions {
			in := &r.Insertions[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendField(dst, `{"path":`, in.Path)
			dst = appendInt(dst, `,"index":`, int64(in.Index))
			dst = appendField(dst, `,"name":`, in.Name)
			if in.Synthesized {
				dst = append(dst, `,"synthesized":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendOmit(dst, `,"output":`, r.Output)
	dst = appendOmit(dst, `,"detail":`, r.Detail)
	dst = appendErr(dst, r.Err)
	return append(dst, '}')
}

// completionSize is the room appendCompletion needs for r, escapes aside.
func completionSize(r *CompleteResult) int {
	n := resultAllowance + len(r.ID) + len(r.Output) + len(r.Detail)
	if r.Err != nil {
		n += errAllowance
	}
	for i := range r.Insertions {
		n += insertionAllowance + len(r.Insertions[i].Path) + len(r.Insertions[i].Name)
	}
	return n
}

// appendReceipt appends rec as /batch?receipt=1 carries it and an async
// job stores it. The time is written as Time.MarshalJSON writes it for
// every time it accepts: RFC 3339 with nanoseconds, years 0 to 9999.
func appendReceipt(dst []byte, rec *Receipt) []byte {
	dst = appendField(dst, `{"root":`, rec.Root)
	dst = appendInt(dst, `,"count":`, int64(rec.Count))
	dst = appendField(dst, `,"kind":`, rec.Kind)
	if rec.Anchored {
		dst = append(dst, `,"anchored":true`...)
	}
	if rec.Seq != 0 {
		dst = appendInt(dst, `,"seq":`, rec.Seq)
	}
	dst = rec.Time.AppendFormat(append(dst, `,"time":"`...), time.RFC3339Nano)
	dst = append(dst, '"')
	if len(rec.Proofs) > 0 {
		dst = append(dst, `,"proofs":[`...)
		for i := range rec.Proofs {
			p := &rec.Proofs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, `{"index":`, int64(p.Index))
			dst = appendField(dst, `,"leaf":{"docId":`, p.Leaf.DocID)
			dst = appendOmit(dst, `,"schemaRef":`, p.Leaf.SchemaRef)
			dst = appendField(dst, `,"verdict":`, p.Leaf.Verdict)
			if p.Leaf.Insertions != 0 {
				dst = appendInt(dst, `,"insertions":`, p.Leaf.Insertions)
			}
			dst = appendField(dst, `,"contentDigest":`, p.Leaf.ContentDigest)
			dst = appendField(dst, `},"proof":`, p.Proof)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// receiptSize is the room appendReceipt needs for rec, escapes aside.
func receiptSize(rec *Receipt) int {
	n := replyAllowance + len(rec.Root) + len(rec.Kind)
	for i := range rec.Proofs {
		l := &rec.Proofs[i].Leaf
		n += proofAllowance + len(l.DocID) + len(l.SchemaRef) + len(l.Verdict) +
			len(l.ContentDigest) + len(rec.Proofs[i].Proof)
	}
	return n
}

// encodeReply writes a /batch or /complete reply and the newline that
// ends it into one buffer that size sizes: each result through item, the
// batch stats (one small struct, through encoding/json) and, when rec is
// set, the receipt.
func encodeReply[R any](results []R, size func(*R) int, item func([]byte, *R) []byte, stats *BatchStats, rec *Receipt) []byte {
	n := replyAllowance
	for i := range results {
		n += size(&results[i])
	}
	if rec != nil {
		n += receiptSize(rec)
	}
	dst := append(make([]byte, 0, n), `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = item(dst, &results[i])
	}
	st, _ := json.Marshal(stats) // no strings to escape, finite rates
	dst = append(append(dst, `],"stats":`...), st...)
	if rec != nil {
		dst = appendReceipt(append(dst, `,"receipt":`...), rec)
	}
	return append(dst, "}\n"...)
}

// appendJobPayload appends the write-ahead payload of an async job of op
// over docs, as recoverRunner decodes it into a jobPayload: s's registry
// ref as the default schema, and each document's id, schema ref, and
// content or bytes (standard base64).
func appendJobPayload(dst []byte, op string, s *Schema, docs []Doc, withDiff, withReceipt bool) []byte {
	dst = appendField(dst, `{"op":`, op)
	if s != nil {
		dst = appendOmit(dst, `,"schema":`, s.Ref)
		dst = append(dst, `,"hasDefault":true`...)
	}
	if withDiff {
		dst = append(dst, `,"diff":true`...)
	}
	if withReceipt {
		dst = append(dst, `,"receipt":true`...)
	}
	dst = append(dst, `,"docs":[`...)
	for i := range docs {
		d := &docs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		open := len(dst)
		if d.ID != "" {
			dst = appendString(appendKey(dst, open, `"id":`), d.ID)
		}
		if d.SchemaRef != "" {
			dst = appendString(appendKey(dst, open, `"ref":`), d.SchemaRef)
		}
		if d.Content != "" {
			dst = appendString(appendKey(dst, open, `"c":`), d.Content)
		}
		if len(d.Bytes) > 0 {
			dst = base64.StdEncoding.AppendEncode(appendKey(dst, open, `"b":"`), d.Bytes)
			dst = append(dst, '"')
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendKey appends key inside an object whose fields are all omitempty:
// after a comma, unless it is the first field since open.
func appendKey(dst []byte, open int, key string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// jobPayloadSize is the room appendJobPayload needs, escapes aside.
func jobPayloadSize(s *Schema, docs []Doc) int {
	n := replyAllowance
	if s != nil {
		n += len(s.Ref)
	}
	for i := range docs {
		d := &docs[i]
		n += payloadAllowance + len(d.ID) + len(d.SchemaRef) + len(d.Content) +
			base64.StdEncoding.EncodedLen(len(d.Bytes))
	}
	return n
}
