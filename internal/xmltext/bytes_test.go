package xmltext

import (
	"reflect"
	"strings"
	"testing"
)

// differentialInputs is a corpus spanning every token kind, both entity
// paths, error cases and position-sensitive shapes.
var differentialInputs = []string{
	``,
	`<a></a>`,
	`<a/>`,
	`<a x="1" y='2'/>`,
	`<a>text</a>`,
	`<a>one<b>two</b>three</a>`,
	`<a>&lt;tag&gt; &amp; &#65;&#x42;</a>`,
	`<a x="&quot;q&quot;" y="a&amp;b"></a>`,
	`<a><![CDATA[<raw>&amp;]]></a>`,
	`<a><!-- a comment --><?pi target data?></a>`,
	`<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>t</r>`,
	"<a>\nline two\n  <b>indented</b>\n</a>",
	`<ns:elem ns:attr="v"/>`,
	`<a-b.c_d>x</a-b.c_d>`,
	`<a x="same" x="dup"/>`,
	`<a>&unknown;</a>`,
	`<a>&#xZZ;</a>`,
	`<a>&#;</a>`,
	`<a>&noend</a>`,
	`<a`,
	`<a x`,
	`<a x=`,
	`<a x=">`,
	`<a x="<"/>`,
	`</a>`,
	`</a `,
	`<a><b></a>`,
	`<1bad/>`,
	`<a><!-- unterminated`,
	`<a><![CDATA[ unterminated`,
	`<?pi unterminated`,
	`<!DOCTYPE unterminated`,
	`<a>x</a>trailing&`,
	`<a>&#1114112;</a>`,   // beyond MaxRune
	`<a>&#x10FFFF;</a>`,   // exactly MaxRune
	`<élem attr="café"/>`, // multi-byte names and values
	`<a>mixed &#x263A; text</a>`,
}

// TestByteTokensAreSubslices verifies the zero-copy contract: on input free
// of entity references, token names, data and attribute values alias the
// source buffer rather than copies of it.
func TestByteTokensAreSubslices(t *testing.T) {
	src := []byte(`<doc id="d1"><title>plain text</title><empty/></doc>`)
	aliases := func(b []byte) bool {
		if len(b) == 0 {
			return true
		}
		for i := range src {
			if &src[i] == &b[0] {
				return true
			}
		}
		return false
	}
	lx := NewByteLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok == nil {
			return
		}
		if !aliases(tok.Name) {
			t.Errorf("token %v name %q does not alias the input", tok.Kind, tok.Name)
		}
		if !aliases(tok.Data) {
			t.Errorf("token %v data %q does not alias the input", tok.Kind, tok.Data)
		}
		for _, a := range tok.Attrs {
			if !aliases(a.Name) || !aliases(a.Value) {
				t.Errorf("attr %q=%q does not alias the input", a.Name, a.Value)
			}
		}
	}
}

// TestByteLexerSteadyStateAllocs verifies the byte path's reason to exist:
// after warm-up, lexing an entity-free document performs zero allocations.
func TestByteLexerSteadyStateAllocs(t *testing.T) {
	src := []byte(strings.Repeat(`<a x="1"><b>some text</b><c/></a>`, 50))
	src = append(append([]byte(`<root>`), src...), `</root>`...)
	lx := NewByteLexer(nil)
	run := func() {
		lx.Reset(src)
		for {
			tok, err := lx.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok == nil {
				return
			}
		}
	}
	run() // warm up attrs buffer
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("byte lexer allocates %.1f times per entity-free document, want 0", avg)
	}
}

// TestByteLexerScratchReuse ensures entity-bearing values are correct even
// though they share the lexer's scratch buffer within one token.
func TestByteLexerScratchReuse(t *testing.T) {
	toks, err := TokenizeBytes([]byte(`<a x="1&amp;2" y="3&lt;4" z="&#65;&#66;">&gt;text&lt;</a>`))
	if err != nil {
		t.Fatal(err)
	}
	start := toks[0]
	want := []Attr{{"x", "1&2"}, {"y", "3<4"}, {"z", "AB"}}
	if !reflect.DeepEqual(start.Attrs, want) {
		t.Errorf("attrs = %v, want %v", start.Attrs, want)
	}
	if toks[1].Data != ">text<" {
		t.Errorf("text = %q, want %q", toks[1].Data, ">text<")
	}
}

func BenchmarkLexBytes(b *testing.B) {
	src := []byte(benchDoc())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	lx := NewByteLexer(nil)
	for i := 0; i < b.N; i++ {
		lx.Reset(src)
		for {
			tok, err := lx.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok == nil {
				break
			}
		}
	}
}

func benchDoc() string {
	var sb strings.Builder
	sb.WriteString(`<doc version="1" kind="bench">`)
	for i := 0; i < 200; i++ {
		sb.WriteString(`<item id="x"><name>some element name</name><desc>a longer run of character data to lex</desc><tag/></item>`)
	}
	sb.WriteString(`</doc>`)
	return sb.String()
}

// tokPos is a token's kind, offset, line, column (in bytes) and end.
type tokPos struct {
	kind                TokenKind
	off, line, col, end int
}

// positionCases pin token and error positions by value, over the shapes
// that move a line or column count: CRLF, tabs, multi-byte text and names,
// newlines inside attribute values, comments, CDATA, PIs and a DOCTYPE
// internal subset, the synthetic EndTag of a self-closing tag, and every
// error site that reports the cursor rather than the token start.
var positionCases = []struct {
	src  string
	want []tokPos
	err  string
}{
	{src: "<a>\r\n<b/>\r\n</a>", want: []tokPos{
		{StartTag, 0, 1, 1, 3}, {Text, 3, 1, 4, 5}, {StartTag, 5, 2, 1, 9}, {EndTag, 9, 2, 5, 9},
		{Text, 9, 2, 5, 11}, {EndTag, 11, 3, 1, 15}}},
	{src: "<r>\tcafé\t<é x='1'/>\n</r>", want: []tokPos{
		{StartTag, 0, 1, 1, 3}, {Text, 3, 1, 4, 10}, {StartTag, 10, 1, 11, 21}, {EndTag, 21, 1, 22, 21},
		{Text, 21, 1, 22, 22}, {EndTag, 22, 2, 1, 26}}},
	{src: "<r a=\"x\ny\"\n b='z'>t</r>", want: []tokPos{
		{StartTag, 0, 1, 1, 18}, {Text, 18, 3, 8, 19}, {EndTag, 19, 3, 9, 23}}},
	{src: "<r><!--a\nb--><![CDATA[c\nd]]><?p e\nf?>\n<s/></r>", want: []tokPos{
		{StartTag, 0, 1, 1, 3}, {Comment, 3, 1, 4, 13}, {Text, 13, 2, 5, 28}, {ProcInst, 28, 3, 5, 37},
		{Text, 37, 4, 4, 38}, {StartTag, 38, 5, 1, 42}, {EndTag, 42, 5, 5, 42}, {EndTag, 42, 5, 5, 46}}},
	{src: "<!DOCTYPE r [\n<!ELEMENT r (#PCDATA)>\n]>\n<r>x</r>", want: []tokPos{
		{Doctype, 0, 1, 1, 39}, {Text, 39, 3, 3, 40}, {StartTag, 40, 4, 1, 43}, {Text, 43, 4, 4, 44},
		{EndTag, 44, 4, 5, 48}}},
	{src: "<r>\n&amp;\n&#x263A;</r>", want: []tokPos{
		{StartTag, 0, 1, 1, 3}, {Text, 3, 1, 4, 18}, {EndTag, 18, 3, 9, 22}}},
	{src: "<r>\r\nx\n  &bogus</r>", err: "xml: line 3, col 3: unterminated entity reference"},
	{src: "<r>é\n&#xZZ;</r>", err: "xml: line 2, col 1: bad character reference &#xZZ;"},
	{src: "<r>\n\tcafé &nope;</r>", err: "xml: line 2, col 8: unknown entity &nope;"},
	{src: "<r\n a='1' /x>", err: "xml: line 2, col 8: expected '/>' in tag <r"},
	{src: "<r a\n\n b>", err: `xml: line 3, col 2: attribute "a" missing '='`},
	{src: "<r a=\r\nb>", err: `xml: line 2, col 1: attribute "a" value must be quoted`},
	{src: "<r a='x\ny&amp;<'/>", err: "xml: line 2, col 7: '<' not allowed in attribute value"},
	{src: "<r a='é\n", err: `xml: line 2, col 1: unterminated attribute value for "a"`},
	{src: "<r>\n<\t/r>", err: `xml: line 2, col 2: expected a name, found "\t/r>"`},
	{src: "<r>\n<!-- never", err: "xml: line 2, col 1: unterminated comment"},
	{src: "<r>\n\t<s x='1'\n x='2'/>", err: `xml: line 2, col 2: duplicate attribute "x" in tag <s`},
}

// TestTokenPositions checks positionCases on the whole-buffer lexer and on
// the chunked lexer at a 7-byte window, where refills slide newlines out
// of the window mid-document.
func TestTokenPositions(t *testing.T) {
	for _, tc := range positionCases {
		whole, wholeErr := TokenizeBytes([]byte(tc.src))
		chunked, chunkedErr := tokenizeChunked(strings.NewReader(tc.src), 7)
		for _, run := range []struct {
			name string
			toks []Token
			err  error
		}{{"whole", whole, wholeErr}, {"chunked", chunked, chunkedErr}} {
			if tc.err != "" {
				if run.err == nil || run.err.Error() != tc.err {
					t.Errorf("%s %q: error %v, want %s", run.name, tc.src, run.err, tc.err)
				}
				continue
			}
			if run.err != nil {
				t.Errorf("%s %q: %v", run.name, tc.src, run.err)
				continue
			}
			got := make([]tokPos, len(run.toks))
			for i, tok := range run.toks {
				got[i] = tokPos{tok.Kind, tok.Pos.Offset, tok.Pos.Line, tok.Pos.Col, tok.End}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s %q:\n  got  %v\n  want %v", run.name, tc.src, got, tc.want)
			}
		}
	}
}
