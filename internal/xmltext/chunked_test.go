package xmltext

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkedBufSizes are the window sizes the differential tests pin: tiny
// windows force every token (and every markup marker) to straddle refill
// boundaries, 4096 exercises the steady state, and the default size checks
// the common configuration.
var chunkedBufSizes = []int{7, 64, 4096, DefaultChunkSize}

func tokenizeChunked(src io.Reader, bufSize int) ([]Token, error) {
	cl := NewChunkedLexer(src, bufSize)
	var out []Token
	for {
		tok, err := cl.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return out, nil
		}
		out = append(out, tok.Token())
	}
}

// TestChunkedLexerMatchesByteLexer pins the sliding-window path to the
// whole-buffer byte lexer: identical token streams (kinds, names, data,
// attributes, global positions) and identical error text on every corpus
// input at every window size, including char-refs, comments and multi-byte
// runes straddling refill boundaries.
func TestChunkedLexerMatchesByteLexer(t *testing.T) {
	inputs := append([]string{}, differentialInputs...)
	inputs = append(inputs, straddleInputs()...)
	for _, src := range inputs {
		want, wantErr := TokenizeBytes([]byte(src))
		for _, size := range chunkedBufSizes {
			got, gotErr := tokenizeChunked(strings.NewReader(src), size)
			compareChunked(t, fmt.Sprintf("buf=%d %.60q", size, src), want, wantErr, got, gotErr)
		}
	}
}

// TestChunkedLexerOneByteReads drives the lexer with a reader that returns
// one byte per Read call — the worst-case refill cadence an io.Reader can
// legally produce — including tokens several windows long. A refill must
// still fill the whole window, or every Read re-lexes a long token from
// its start, so the window is full once the first token is out.
func TestChunkedLexerOneByteReads(t *testing.T) {
	const window = 64
	long := strings.Repeat("0123456789", 5*window/10)
	inputs := append(straddleInputs(),
		`<r>`+long+`</r>`,
		`<r><!--`+long+`--></r>`,
		`<r a="`+strings.Repeat("x&amp;", window)+`">`+long+`&lt;</r>`,
		`<r><![CDATA[`+long+`]]><`+strings.Repeat("n", 3*window)+`/></r>`,
	)
	for _, src := range inputs {
		want, wantErr := TokenizeBytes([]byte(src))
		got, gotErr := tokenizeChunked(iotest.OneByteReader(strings.NewReader(src)), window)
		compareChunked(t, fmt.Sprintf("onebyte %.60q", src), want, wantErr, got, gotErr)

		cl := NewChunkedLexer(iotest.OneByteReader(strings.NewReader(src)), window)
		if _, err := cl.Next(); err != nil {
			t.Fatal(err)
		}
		if cl.n != cl.BufSize() {
			t.Errorf("%.30q: window holds %d bytes after the first token, want it full (%d)", src, cl.n, cl.BufSize())
		}
	}
}

// TestChunkedLexerReset verifies window reuse across documents: a pooled
// lexer must not leak state (positions, pending tokens, EOF latch) from the
// previous stream.
func TestChunkedLexerReset(t *testing.T) {
	cl := NewChunkedLexer(strings.NewReader(`<a>first</a>`), 16)
	for {
		tok, err := cl.Next()
		if err != nil {
			t.Fatalf("first doc: %v", err)
		}
		if tok == nil {
			break
		}
	}
	cl.Reset(strings.NewReader(`<b x="&#65;">second</b>`))
	var got []Token
	for {
		tok, err := cl.Next()
		if err != nil {
			t.Fatalf("second doc: %v", err)
		}
		if tok == nil {
			break
		}
		got = append(got, tok.Token())
	}
	want, _ := TokenizeBytes([]byte(`<b x="&#65;">second</b>`))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("after Reset: token mismatch\n  want: %#v\n  got:  %#v", want, got)
	}
}

// TestChunkedLexerGrowsForGiantToken checks the escape hatch: a single token
// larger than the window forces the buffer to grow (geometrically) instead
// of failing, and the token still comes out intact.
func TestChunkedLexerGrowsForGiantToken(t *testing.T) {
	big := strings.Repeat("x", 10_000)
	src := `<a><!--` + big + `--></a>`
	cl := NewChunkedLexer(strings.NewReader(src), 64)
	var comment string
	for {
		tok, err := cl.Next()
		if err != nil {
			t.Fatalf("lex: %v", err)
		}
		if tok == nil {
			break
		}
		if tok.Kind == Comment {
			comment = string(tok.Data)
		}
	}
	if comment != big {
		t.Fatalf("comment body corrupted: got %d bytes, want %d", len(comment), len(big))
	}
	if cl.BufSize() < len(big) {
		t.Fatalf("window did not grow past the giant token: %d", cl.BufSize())
	}
	if cl.InputOffset() != int64(len(src)) {
		t.Fatalf("InputOffset = %d, want %d", cl.InputOffset(), len(src))
	}
}

// TestChunkedLexerReadError verifies reader failures surface as-is rather
// than as syntax errors.
func TestChunkedLexerReadError(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	r := io.MultiReader(strings.NewReader(`<a>ok`), iotest.ErrReader(boom))
	_, err := tokenizeChunked(r, 16)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("want reader error, got %v", err)
	}
}

func compareChunked(t *testing.T, label string, want []Token, wantErr error, got []Token, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Errorf("%s: error mismatch\n  whole:   %v\n  chunked: %v", label, wantErr, gotErr)
		return
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Errorf("%s: error text mismatch\n  whole:   %v\n  chunked: %v", label, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: token mismatch\n  whole:   %#v\n  chunked: %#v", label, want, got)
	}
}

// straddleInputs builds documents whose char-refs, comments, CDATA markers
// and multi-byte runes are guaranteed to cross refill boundaries at the
// small window sizes: long runs of short tokens plus markup placed at every
// alignment modulo the window.
func straddleInputs() []string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `<item id="v&amp;%d">t&#x263A;xt<!-- note %d --></item>`, i, i)
	}
	b.WriteString("</root>")
	long := b.String()
	return []string{
		long,
		`<r>` + strings.Repeat(`&#65;`, 100) + `</r>`,
		`<r><![CDATA[` + strings.Repeat(`]] >`, 50) + `]]></r>`,
		`<r>` + strings.Repeat(`é`, 100) + `<é·name·like·this attr·x="café"/></r>`,
		`<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>` + strings.Repeat("deep text ", 40) + `</r>`,
		strings.Repeat(`<a/>`, 100),
	}
}

// BenchmarkChunkedLexerReadSize lexes a 2 MB single-text-node document
// through the default window, fed by 4 KB reads and by whole-window reads.
// A token longer than one read is where a refill that stops at the first
// short read turns quadratic; the two rows should match.
func BenchmarkChunkedLexerReadSize(b *testing.B) {
	src := []byte(`<r>` + strings.Repeat("x", 2<<20) + `</r>`)
	for _, bc := range []struct {
		name string
		read int
	}{{"read=4KB", 4 << 10}, {"read=window", DefaultChunkSize}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			cl := NewChunkedLexer(nil, 0)
			for i := 0; i < b.N; i++ {
				cl.Reset(capReader{bytes.NewReader(src), bc.read})
				for {
					tok, err := cl.Next()
					if err != nil {
						b.Fatal(err)
					}
					if tok == nil {
						break
					}
				}
			}
		})
	}
}

// capReader returns at most n bytes per Read, like a network body that
// delivers a document a segment at a time.
type capReader struct {
	r io.Reader
	n int
}

func (c capReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}
