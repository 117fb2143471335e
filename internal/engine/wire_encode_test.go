package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/diff"
	"repro/internal/dtd"
	"repro/internal/receipt"
)

// The writer's oracle: the reflection structs the routes encoded through
// newEncoder before the wire's writer took over. FuzzWireEncode holds the
// writer to marshal of these, byte for byte.

// resultJSON is the wire form of Result.
type resultJSON struct {
	ID               string `json:"id,omitempty"`
	Index            int    `json:"index"`
	PotentiallyValid bool   `json:"potentiallyValid"`
	Valid            bool   `json:"valid"`
	Detail           string `json:"detail,omitempty"`
	Error            string `json:"error,omitempty"`
}

func toJSON(r Result) resultJSON {
	out := resultJSON{
		ID:               r.ID,
		Index:            r.Index,
		PotentiallyValid: r.PotentiallyValid,
		Valid:            r.Valid,
		Detail:           r.Detail,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

type batchResponse struct {
	Results []resultJSON `json:"results"`
	Stats   BatchStats   `json:"stats"`
	Receipt *Receipt     `json:"receipt,omitempty"`
}

// completeJSON is the wire form of CompleteResult.
type completeJSON struct {
	ID           string           `json:"id,omitempty"`
	Index        int              `json:"index"`
	Completed    bool             `json:"completed"`
	AlreadyValid bool             `json:"alreadyValid,omitempty"`
	Inserted     int              `json:"inserted"`
	Insertions   []diff.Insertion `json:"insertions,omitempty"`
	Output       string           `json:"output,omitempty"`
	Detail       string           `json:"detail,omitempty"`
	Error        string           `json:"error,omitempty"`
}

func completeToJSON(r CompleteResult) completeJSON {
	out := completeJSON{
		ID:           r.ID,
		Index:        r.Index,
		Completed:    r.Completed,
		AlreadyValid: r.AlreadyValid,
		Inserted:     r.Inserted,
		Insertions:   r.Insertions,
		Output:       r.Output,
		Detail:       r.Detail,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

type completeResponse struct {
	Results []completeJSON `json:"results"`
	Stats   BatchStats     `json:"stats"`
	Receipt *Receipt       `json:"receipt,omitempty"`
}

// oraclePayload is the jobPayload the payload writer stands for.
func oraclePayload(op string, s *Schema, docs []Doc, withDiff, withReceipt bool) jobPayload {
	p := jobPayload{Op: op, Diff: withDiff, Receipt: withReceipt, Docs: make([]payloadDoc, len(docs))}
	if s != nil {
		p.Schema = s.Ref
		p.HasDefault = true
	}
	for i, d := range docs {
		p.Docs[i] = payloadDoc{ID: d.ID, Ref: d.SchemaRef, Content: d.Content, Bytes: d.Bytes}
	}
	return p
}

// marshal is json.Marshal written through newEncoder, without the
// newline Encode ends a value with.
func marshal(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := newEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte{'\n'}), nil
}

// encodeCase builds one value of a shape from the fuzz text, the shape's
// flag bits and a number, and returns what the writer writes for it and
// the oracle value marshal must write the same for (with reply set, the
// writer's bytes end in the newline a reply ends in).
type encodeCase struct {
	name  string
	bits  uint
	build func(text []byte, flags uint64, num int64) (got []byte, oracle any, reply bool)
}

// piece returns the fuzz text from offset k on, so that each field sees
// the same bytes at another alignment to the 8-byte word.
func piece(text []byte, k int) string { return string(text[min(k, len(text)):]) }

// pick returns piece(text, k), or "" when flag bit b is set.
func pick(text []byte, k int, flags uint64, b uint) string {
	if flags&(1<<b) != 0 {
		return ""
	}
	return piece(text, k)
}

// errOf returns nil, an error with an empty text, or an error with the
// text, by two flag bits from b.
func errOf(text []byte, flags uint64, b uint) error {
	switch flags >> b & 3 {
	case 0:
		return nil
	case 1:
		return errors.New("")
	}
	return errors.New(piece(text, 5))
}

func fuzzResult(text []byte, flags uint64, num int64) Result {
	return Result{
		ID:               pick(text, 0, flags, 0),
		Index:            int(num),
		PotentiallyValid: flags&(1<<1) != 0,
		Valid:            flags&(1<<2) != 0,
		Detail:           pick(text, 1, flags, 3),
		Err:              errOf(text, flags, 4),
		Bytes:            len(text),
	}
}

func fuzzCompletion(text []byte, flags uint64, num int64) CompleteResult {
	r := CompleteResult{
		ID:           pick(text, 2, flags, 0),
		Index:        int(num >> 3),
		Completed:    flags&(1<<1) != 0,
		AlreadyValid: flags&(1<<2) != 0,
		Inserted:     int(num),
		Output:       pick(text, 3, flags, 3),
		Detail:       pick(text, 4, flags, 4),
		Err:          errOf(text, flags, 5),
	}
	switch flags >> 7 & 3 {
	case 1:
		r.Insertions = []diff.Insertion{}
	case 2, 3:
		for i := 0; i < int(flags>>7&3); i++ {
			r.Insertions = append(r.Insertions, diff.Insertion{
				Path:        piece(text, 6+i),
				Index:       int(num) - i,
				Name:        pick(text, 7+i, flags, 9),
				Synthesized: flags&(1<<(10+uint(i))) != 0,
			})
		}
	}
	return r
}

// fuzzTime returns the zero time, a UTC time or one in a zone east or
// west of UTC, within the years Time.MarshalJSON accepts.
func fuzzTime(flags uint64, num int64) time.Time {
	// Unix seconds at the starts of the years 1 and 9999.
	const first, last = -62135596800, 253370764800
	t := time.Unix(first+int64(uint64(num)%(last-first)), int64(uint64(num)%1e9))
	switch flags & 3 {
	case 0:
		return time.Time{}
	case 1:
		return t.UTC()
	}
	offset := int(num%(24*60)) * 60 // under a day, either sign
	return t.In(time.FixedZone("", offset))
}

func fuzzReceipt(text []byte, flags uint64, num int64) *Receipt {
	rec := &Receipt{
		Root:     piece(text, 8),
		Count:    int(num >> 5),
		Kind:     pick(text, 9, flags, 0),
		Anchored: flags&(1<<1) != 0,
		Time:     fuzzTime(flags>>3, num),
	}
	if flags&(1<<2) != 0 {
		rec.Seq = num >> 2
	}
	switch flags >> 5 & 3 {
	case 1:
		rec.Proofs = []DocProof{}
	case 2, 3:
		for i := 0; i < int(flags>>5&3); i++ {
			leaf := receipt.Leaf{
				DocID:         pick(text, 10+i, flags, 7),
				SchemaRef:     pick(text, 11+i, flags, 8),
				Verdict:       piece(text, 12+i),
				ContentDigest: piece(text, 13+i),
			}
			if flags&(1<<9) != 0 {
				leaf.Insertions = num >> 9
			}
			rec.Proofs = append(rec.Proofs, DocProof{Index: int(num) + i, Leaf: leaf, Proof: pick(text, 14+i, flags, 10)})
		}
	}
	return rec
}

// encodeCases are the writer's shapes, each with its own flag bits.
var encodeCases = []encodeCase{
	{"result", 6, func(text []byte, flags uint64, num int64) ([]byte, any, bool) {
		r := fuzzResult(text, flags, num)
		return appendResult(nil, &r), toJSON(r), false
	}},
	{"completion", 12, func(text []byte, flags uint64, num int64) ([]byte, any, bool) {
		r := fuzzCompletion(text, flags, num)
		return appendCompletion(nil, &r), completeToJSON(r), false
	}},
	{"receipt", 11, func(text []byte, flags uint64, num int64) ([]byte, any, bool) {
		rec := fuzzReceipt(text, flags, num)
		return appendReceipt(nil, rec), rec, false
	}},
	{"batch", 9, func(text []byte, flags uint64, num int64) ([]byte, any, bool) {
		results := make([]Result, flags&3)
		out := batchResponse{Results: make([]resultJSON, len(results)), Stats: BatchStats{Docs: len(results)}}
		for i := range results {
			results[i] = fuzzResult(text[min(i, len(text)):], flags>>3, num+int64(i))
			out.Results[i] = toJSON(results[i])
		}
		if flags&(1<<2) != 0 {
			out.Receipt = fuzzReceipt(text, flags>>3, num)
		}
		return encodeReply(results, resultSize, appendResult, &out.Stats, out.Receipt), out, true
	}},
	{"complete", 10, func(text []byte, flags uint64, num int64) ([]byte, any, bool) {
		results := make([]CompleteResult, flags&3)
		out := completeResponse{Results: make([]completeJSON, len(results)), Stats: BatchStats{Docs: len(results)}}
		for i := range results {
			results[i] = fuzzCompletion(text[min(i, len(text)):], flags>>3, num+int64(i))
			out.Results[i] = completeToJSON(results[i])
		}
		if flags&(1<<2) != 0 {
			out.Receipt = fuzzReceipt(text, flags>>3, num)
		}
		return encodeReply(results, completionSize, appendCompletion, &out.Stats, out.Receipt), out, true
	}},
	{"payload", 10, func(text []byte, flags uint64, num int64) ([]byte, any, bool) {
		var s *Schema
		if flags&1 != 0 {
			s = &Schema{Ref: pick(text, 15, flags, 1)}
		}
		var docs []Doc
		if flags&(1<<2) != 0 {
			docs = []Doc{}
		}
		for i := 0; i < int(flags>>3&3); i++ {
			f := flags >> (5 + uint(i))
			d := Doc{ID: pick(text, 16+i, f, 0), SchemaRef: pick(text, 17+i, f, 1), Content: pick(text, 18+i, f, 2)}
			switch f >> 3 & 3 {
			case 1:
				d.Bytes = []byte{}
			case 2:
				d.Bytes = text[min(i, len(text)):]
			case 3:
				d.Bytes = []byte(fmt.Sprint(num))
			}
			docs = append(docs, d)
		}
		op := piece(text, 19)
		withDiff, withReceipt := num&1 != 0, num&2 != 0
		return appendJobPayload(nil, op, s, docs, withDiff, withReceipt), oraclePayload(op, s, docs, withDiff, withReceipt), false
	}},
}

// checkWireEncode holds the writer to marshal on every shape built from
// one fuzz input; shape i reads the flag bits from the sum of the earlier
// shapes' bits on (modulo 64).
func checkWireEncode(t *testing.T, text []byte, flags uint64, num int64) {
	t.Helper()
	shift := uint(0)
	for _, c := range encodeCases {
		f := flags>>(shift%64) | flags<<(64-shift%64)
		shift += c.bits
		got, oracle, reply := c.build(text, f, num)
		want, err := marshal(oracle)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if reply {
			want = append(want, '\n')
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s on %q, flags %#x, num %d:\nwriter %s\nmarshal %s", c.name, text, f, num, got, want)
		}
	}
}

// encodeSeeds are the fuzz texts: every control byte, invalid UTF-8,
// U+2028 and U+2029, <, > and &, DEL, quotes and backslashes, and
// multi-byte runes across the 8-byte word boundary.
var encodeSeeds = []string{
	"",
	"plain",
	"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f\x7f",
	"\xff\xfe\xc0\xaf\xed\xa0\x80\xe2\x82\xf0\x9f\x98",
	"1234567\xe2\x80\xa8 1234567\xe2\x80\xa9 \xe2\x80\xa7\xe2\x80\xaa",
	"<r a=\"1\">x &amp; y</r>\\ \"q\" </script>",
	"1234567\xc3\xa9 123456\xe2\x82\xac 12345\xf0\x9f\x98\x80 1234567\xf0\x9f\x98\x80",
	"0123456\"7 0123456\\7 0123456\n7 01234567\t",
	"<play><title>x</title><act><scene><speech><speaker>a</speaker><line>l</line></speech></scene></act></play>",
}

func FuzzWireEncode(f *testing.F) {
	for i, s := range encodeSeeds {
		for _, flags := range []uint64{0, ^uint64(0), 0x5555555555555555, 0xaaaaaaaaaaaaaaaa, 0x0123456789abcdef} {
			f.Add([]byte(s), flags, int64(i)*7919-3)
		}
	}
	f.Add([]byte("x"), uint64(0), int64(-1)<<63)
	f.Add([]byte("x"), ^uint64(0), int64(1)<<62)
	f.Fuzz(checkWireEncode)
}

// TestWireEncodeEveryCombination runs every shape over every combination
// of its flag bits — each omitempty field empty and set, nil and empty
// slices, no error, an empty error and an error, and the zero, a UTC
// and a zoned receipt time — on each seed text.
func TestWireEncodeEveryCombination(t *testing.T) {
	for _, c := range encodeCases {
		for _, text := range encodeSeeds {
			for f := uint64(0); f < 1<<c.bits; f++ {
				for _, num := range []int64{-12345, 1_700_000_000_123} {
					got, oracle, reply := c.build([]byte(text), f, num)
					want, err := marshal(oracle)
					if err != nil {
						t.Fatalf("%s: oracle: %v", c.name, err)
					}
					if reply {
						want = append(want, '\n')
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s on %q, flags %#x, num %d:\nwriter %s\nmarshal %s", c.name, text, f, num, got, want)
					}
				}
			}
		}
	}
}

// TestWireEncodeShapes pins the writer's output on the edge cases by
// value.
func TestWireEncodeShapes(t *testing.T) {
	zone := time.FixedZone("", -(3*3600 + 30*60))
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"control bytes", appendString(nil, "\x00\x07\b\t\n\v\f\r\x1f\x7f"),
			"\"\\u0000\\u0007\\b\\t\\n\\u000b\\f\\r\\u001f\x7f\""},
		{"quotes, backslash and HTML", appendString(nil, `a"b\c<d>&e`), `"a\"b\\c<d>&e"`},
		{"invalid UTF-8", appendString(nil, "a\xffb\xed\xa0\x80c\xe2\x82"),
			"\"a\\ufffdb\\ufffd\\ufffd\\ufffdc\\ufffd\\ufffd\""},
		{"line and paragraph separators", appendString(nil, "1234567\xe2\x80\xa8\xe2\x80\xa9\xe2\x80\xa7"),
			"\"1234567\\u2028\\u2029" + "\xe2\x80\xa7\""},
		{"runes across the word boundary", appendString([]byte("x"), []byte("1234567\xc3\xa9\xf0\x9f\x98\x80")),
			"x\"1234567\xc3\xa9\xf0\x9f\x98\x80\""},
		{"bare verdict", appendResult(nil, &Result{}), `{"index":0,"potentiallyValid":false,"valid":false}`},
		{"full verdict", appendResult(nil, &Result{ID: "a<b", Index: 3, PotentiallyValid: true, Detail: "d", Err: errors.New("e\n")}),
			`{"id":"a<b","index":3,"potentiallyValid":true,"valid":false,"detail":"d","error":"e\n"}`},
		{"empty error", appendResult(nil, &Result{Index: -1, Err: errors.New("")}),
			`{"index":-1,"potentiallyValid":false,"valid":false}`},
		{"completion, empty insertions", appendCompletion(nil, &CompleteResult{Completed: true, AlreadyValid: true, Insertions: []diff.Insertion{}, Output: "<r/>"}),
			`{"index":0,"completed":true,"alreadyValid":true,"inserted":0,"output":"<r/>"}`},
		{"completion with records", appendCompletion(nil, &CompleteResult{ID: "x", Index: 1, Completed: true, Inserted: 2,
			Insertions: []diff.Insertion{{Path: "/", Index: 0, Name: "r", Synthesized: false}, {Path: "/r[0]", Index: 1, Name: "a", Synthesized: true}},
			Output:     "<r><a/></r>"}),
			`{"id":"x","index":1,"completed":true,"inserted":2,"insertions":[{"path":"/","index":0,"name":"r"},` +
				`{"path":"/r[0]","index":1,"name":"a","synthesized":true}],"output":"<r><a/></r>"}`},
		{"root-only receipt, zero time", appendReceipt(nil, &Receipt{Root: "pvr1:00", Count: 2, Kind: "check", Proofs: []DocProof{}}),
			`{"root":"pvr1:00","count":2,"kind":"check","time":"0001-01-01T00:00:00Z"}`},
		{"anchored receipt in a zone", appendReceipt(nil, &Receipt{Root: "r", Count: 1, Kind: "complete", Anchored: true, Seq: 7,
			Time:   time.Date(2026, 10, 20, 8, 37, 11, 120000000, zone),
			Proofs: []DocProof{{Index: 0, Leaf: receipt.Leaf{DocID: "", Verdict: "completed", Insertions: 3, ContentDigest: "ab"}, Proof: "pvp1:"}}}),
			`{"root":"r","count":1,"kind":"complete","anchored":true,"seq":7,"time":"2026-10-20T08:37:11.12-03:30",` +
				`"proofs":[{"index":0,"leaf":{"docId":"","verdict":"completed","insertions":3,"contentDigest":"ab"},"proof":"pvp1:"}]}`},
		{"payload without documents", appendJobPayload(nil, "check", nil, nil, false, false), `{"op":"check","docs":[]}`},
		{"payload", appendJobPayload(nil, "complete", &Schema{Ref: ""}, []Doc{{}, {SchemaRef: "ab"}, {Content: "<r/>", Bytes: []byte{}}, {ID: "i", Bytes: []byte("<r/>")}}, true, true),
			`{"op":"complete","hasDefault":true,"diff":true,"receipt":true,"docs":[{},{"ref":"ab"},{"c":"<r/>"},{"id":"i","b":"PHIvPg=="}]}`},
	} {
		if string(tc.got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, tc.got, tc.want)
		}
	}
	got := encodeReply([]Result(nil), resultSize, appendResult, &BatchStats{Workers: 2, DocsPerSec: 0.5}, nil)
	want := `{"results":[],"stats":{"docs":0,"potentiallyValid":0,"valid":0,"malformed":0,"bytes":0,"workers":2,` +
		`"elapsedNs":0,"docsPerSec":0.5,"mbPerSec":0}}` + "\n"
	if string(got) != want {
		t.Errorf("empty /batch reply:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkWireEncode writes the three values that grow with their
// documents, through the writer and through marshal: the write-ahead
// payload of a 128-document check job, a 16-document /complete reply
// with insertion records, and the receipt of a 128-document batch.
func BenchmarkWireEncode(b *testing.B) {
	e := New(Config{Workers: 1})
	defer e.Close()
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	docs := benchCorpus(128)
	results, stats := e.CompleteBatch(s, docs[:16], true)
	reply := completeResponse{Results: make([]completeJSON, len(results)), Stats: stats}
	for i := range results {
		reply.Results[i] = completeToJSON(results[i])
	}
	_, _, rec, err := e.CheckBatchReceipt(s, docs)
	if err != nil {
		b.Fatal(err)
	}
	rec.Anchored, rec.Seq, rec.Time = true, 1, time.Now().UTC()
	cases := []struct {
		name   string
		writer func() []byte
		oracle any
	}{
		{"payload", func() []byte {
			return appendJobPayload(make([]byte, 0, jobPayloadSize(s, docs)), "check", s, docs, false, true)
		}, oraclePayload("check", s, docs, false, true)},
		{"complete-reply", func() []byte {
			return encodeReply(results, completionSize, appendCompletion, &stats, nil)
		}, reply},
		{"receipt", func() []byte {
			return appendReceipt(make([]byte, 0, receiptSize(rec)), rec)
		}, rec},
	}
	for _, c := range cases {
		want, err := marshal(c.oracle)
		if err != nil {
			b.Fatal(err)
		}
		if got := bytes.TrimSuffix(c.writer(), []byte{'\n'}); !bytes.Equal(got, want) {
			b.Fatalf("%s: the writer and marshal differ", c.name)
		}
		b.Run(c.name+"/writer", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.writer()
			}
		})
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := marshal(c.oracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
