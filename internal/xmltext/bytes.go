// ByteLexer is the package's one tokenizer. It operates on []byte input and
// emits tokens whose Name/Data/Attrs are subslices of the input (or of an
// internal scratch buffer when entity references force resolution), so the
// steady-state token loop performs no per-token allocation. It only ever
// reads its input, which is what lets strings enter through View.
// ByteToken.Token and TokenizeBytes materialize owning string tokens.
package xmltext

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// ByteAttr is one attribute of a start tag. Name always subslices the
// input; Value subslices the input when the raw value contains no entity
// references, and the lexer's scratch buffer otherwise.
type ByteAttr struct {
	Name  []byte
	Value []byte
}

// ByteToken is the zero-copy form of Token. Its byte slices (and the
// token itself, which the lexer reuses) are valid only until the next call
// to Next; callers that need to retain a token materialize it with Token.
type ByteToken struct {
	Kind      TokenKind
	Name      []byte // element name for StartTag/EndTag, target for ProcInst
	Data      []byte // text content, comment body, PI data
	Attrs     []ByteAttr
	SelfClose bool
	Pos       Pos
	End       int
}

// Token materializes the byte token as an owning string Token.
func (t *ByteToken) Token() Token {
	out := Token{
		Kind:      t.Kind,
		Name:      string(t.Name),
		Data:      string(t.Data),
		SelfClose: t.SelfClose,
		Pos:       t.Pos,
		End:       t.End,
	}
	if len(t.Attrs) > 0 {
		out.Attrs = make([]Attr, len(t.Attrs))
		for i, a := range t.Attrs {
			out.Attrs[i] = Attr{Name: string(a.Name), Value: string(a.Value)}
		}
	}
	return out
}

// ByteLexer tokenizes an XML byte slice without copying it. The input must
// not be mutated while the lexer is in use, and the lexer never writes to
// it.
//
// Each byte is touched once, in a tight loop: names and whitespace are
// classified through byteClass, text runs are found with bytes.IndexByte,
// and the hot loops move only the offset. Line and column are filled in
// per token instead (position), by counting the newlines passed since the
// previous token.
type ByteLexer struct {
	src []byte
	pos int
	// line is the 1-based line the last position handed out lies on,
	// lineStart the offset where that line begins (negative in a window
	// whose line began before the window) and nextNL the offset of the
	// newline that ends it, len(src) if none does.
	line, lineStart, nextNL int
	tok                     ByteToken // reused; returned by Next
	attrs                   []ByteAttr
	scratch                 []byte // entity-resolved text and attribute values
	pendName                []byte // a synthetic EndTag follows a self-closing StartTag
	pendPos                 Pos
	havePend                bool
	streaming               bool // src is a window, not the whole document; see errNeedMore
}

// errNeedMore is returned (in streaming mode only) when the window ends in
// the middle of a token: the condition that reads as a syntax error on a
// whole document may resolve once more bytes arrive. ChunkedLexer reacts by
// refilling the window and re-lexing from the last consumed position; the
// sentinel never escapes to ChunkedLexer callers. Sites that can hit the end
// of input funnel through (*ByteLexer).more so the streaming and
// whole-buffer paths stay in lockstep.
var errNeedMore = fmt.Errorf("xmltext: need more input")

// more converts an at-end-of-input condition into either the retryable
// refill sentinel (streaming mode) or the definitive syntax error
// (whole-buffer mode, or streaming mode after the final refill).
func (l *ByteLexer) more(pos Pos, format string, args ...any) error {
	if l.streaming {
		return errNeedMore
	}
	return l.errf(pos, format, args...)
}

// NewByteLexer returns a lexer over src.
func NewByteLexer(src []byte) *ByteLexer {
	l := &ByteLexer{}
	l.Reset(src)
	return l
}

// Reset rewinds the lexer onto a new input, retaining its internal buffers
// — the hook that lets checker pools lex many documents without
// re-allocating lexer state. It also drops every reference into the
// previous input, so Reset(nil) releases a finished document.
func (l *ByteLexer) Reset(src []byte) {
	l.src = src
	l.pos = 0
	l.line, l.lineStart, l.nextNL = 1, 0, l.newlineFrom(0)
	l.havePend = false
	l.tok, l.pendName = ByteToken{}, nil
	clear(l.attrs[:cap(l.attrs)])
}

// TokenizeBytes lexes the entire slice and materializes owning tokens.
func TokenizeBytes(src []byte) ([]Token, error) {
	lx := NewByteLexer(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return out, nil
		}
		out = append(out, tok.Token())
	}
}

// newlineFrom returns the offset of the first newline at or after p, or
// len(src) if there is none.
func (l *ByteLexer) newlineFrom(p int) int {
	if i := bytes.IndexByte(l.src[p:], '\n'); i >= 0 {
		return p + i
	}
	return len(l.src)
}

// countLines moves the line count forward to offset p, which must not
// precede the last position handed out. Most tokens end before the next
// newline and cost one comparison; each newline passed costs one scan to
// the following one, so each byte is scanned once per pass.
func (l *ByteLexer) countLines(p int) {
	for l.nextNL < p {
		l.line++
		l.lineStart = l.nextNL + 1
		l.nextNL = l.newlineFrom(l.lineStart)
	}
}

// position returns the line and column of offset p (see countLines).
// The test before countLines keeps the common case, no newline passed,
// to one comparison: it measured 10-20% faster on BenchmarkLexBytes than
// entering countLines for every token (2-vCPU Xeon, Go 1.24).
func (l *ByteLexer) position(p int) Pos {
	if l.nextNL < p {
		l.countLines(p)
	}
	return Pos{Offset: p, Line: l.line, Col: p - l.lineStart + 1}
}

func (l *ByteLexer) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// emit writes a token ending at the cursor into the reused l.tok, field by
// field.
func (l *ByteLexer) emit(kind TokenKind, name, data []byte, start Pos) *ByteToken {
	t := &l.tok
	t.Kind = kind
	t.Name = name
	t.Data = data
	t.Attrs = nil
	t.SelfClose = false
	t.Pos = start
	t.End = l.pos
	return t
}

// Byte classes of the lexer's hot loops. Bytes from 0x80 up have no
// class: names take the rune path there.
const (
	classNameStart = 1 << iota // ASCII letter, '_' or ':'
	className                  // a name start, digit, '-' or '.'
	classSpace                 // XML whitespace
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
			t[c] = classNameStart | className
		case '0' <= c && c <= '9', c == '-', c == '.':
			t[c] = className
		case c == ' ', c == '\t', c == '\r', c == '\n':
			t[c] = classSpace
		}
	}
	return t
}()

var (
	bComment = []byte("<!--")
	bCDATA   = []byte("<![CDATA[")
	bDoctype = []byte("<!DOCTYPE")
)

// Next returns the next token, or (nil, nil) at end of input. The returned
// token is owned by the lexer and overwritten by the following call.
func (l *ByteLexer) Next() (*ByteToken, error) {
	if l.havePend {
		l.havePend = false
		return l.emit(EndTag, l.pendName, nil, l.pendPos), nil
	}
	if l.pos >= len(l.src) {
		return nil, nil
	}
	l.scratch = l.scratch[:0]
	start := l.position(l.pos)
	if l.src[l.pos] != '<' {
		return l.lexText(start)
	}
	if l.pos+1 == len(l.src) {
		if l.streaming {
			return nil, errNeedMore // the window may end inside a markup marker
		}
		return l.lexStartTag(start)
	}
	switch l.src[l.pos+1] {
	case '/':
		return l.lexEndTag(start)
	case '?':
		return l.lexPI(start)
	case '!':
		rest := l.src[l.pos:]
		switch {
		case bytes.HasPrefix(rest, bComment):
			return l.lexComment(start)
		case bytes.HasPrefix(rest, bCDATA):
			return l.lexCDATA(start)
		case bytes.HasPrefix(rest, bDoctype):
			return l.lexDoctype(start)
		}
		if l.streaming && len(rest) < len(bCDATA) {
			// The window may end inside "<!--", "<![CDATA[" or
			// "<!DOCTYPE": refill before lexing the fragment as a start tag.
			for _, m := range [][]byte{bComment, bCDATA, bDoctype} {
				if len(rest) < len(m) && bytes.HasPrefix(m, rest) {
					return nil, errNeedMore
				}
			}
		}
	}
	return l.lexStartTag(start)
}

func (l *ByteLexer) lexText(start Pos) (*ByteToken, error) {
	from := l.pos
	end := len(l.src)
	if i := bytes.IndexByte(l.src[from:], '<'); i >= 0 {
		end = from + i
	}
	amp := bytes.IndexByte(l.src[from:end], '&')
	if amp < 0 {
		if l.streaming && end == len(l.src) {
			return nil, errNeedMore // the text run may continue past the window
		}
		// Fast path: no entity references, the text is a pure subslice.
		l.pos = end
		return l.emit(Text, nil, l.src[from:end], start), nil
	}
	l.pos = from + amp
	l.scratch = append(l.scratch, l.src[from:l.pos]...)
	for l.pos < end {
		if l.src[l.pos] == '&' {
			if err := l.appendEntity(); err != nil {
				return nil, err
			}
			continue
		}
		l.scratch = append(l.scratch, l.src[l.pos])
		l.pos++
	}
	if l.streaming && l.pos >= len(l.src) {
		return nil, errNeedMore
	}
	return l.emit(Text, nil, l.scratch, start), nil
}

// appendEntity resolves one entity reference at the cursor into scratch.
func (l *ByteLexer) appendEntity() error {
	semi := bytes.IndexByte(l.src[l.pos:], ';')
	if semi < 0 || semi > 12 {
		// Streaming: the ';' may sit just past the window, but only while
		// fewer than 13 bytes ('&' plus the longest legal reference body)
		// have been scanned; beyond that the reference is unterminated no
		// matter what follows.
		if l.streaming && semi < 0 && len(l.src)-l.pos <= 12 {
			return errNeedMore
		}
		return l.errf(l.position(l.pos), "unterminated entity reference")
	}
	at := l.pos
	name := l.src[at+1 : at+semi]
	l.pos += semi + 1
	if len(name) >= 2 && name[0] == '#' && (name[1] == 'x' || name[1] == 'X') {
		r, ok := charRefValue(name[2:], 16)
		if !ok {
			return l.errf(l.position(at), "bad character reference &%s;", name)
		}
		l.scratch = utf8.AppendRune(l.scratch, r)
		return nil
	}
	if len(name) >= 1 && name[0] == '#' {
		r, ok := charRefValue(name[1:], 10)
		if !ok {
			return l.errf(l.position(at), "bad character reference &%s;", name)
		}
		l.scratch = utf8.AppendRune(l.scratch, r)
		return nil
	}
	switch string(name) { // compiles to comparisons; no conversion allocation
	case "lt":
		l.scratch = append(l.scratch, '<')
	case "gt":
		l.scratch = append(l.scratch, '>')
	case "amp":
		l.scratch = append(l.scratch, '&')
	case "apos":
		l.scratch = append(l.scratch, '\'')
	case "quot":
		l.scratch = append(l.scratch, '"')
	default:
		return l.errf(l.position(at), "unknown entity &%s;", name)
	}
	return nil
}

func (l *ByteLexer) lexComment(start Pos) (*ByteToken, error) {
	l.pos += len(bComment)
	end := bytes.Index(l.src[l.pos:], []byte("-->"))
	if end < 0 {
		return nil, l.more(start, "unterminated comment")
	}
	data := l.src[l.pos : l.pos+end]
	l.pos += end + 3
	return l.emit(Comment, nil, data, start), nil
}

func (l *ByteLexer) lexCDATA(start Pos) (*ByteToken, error) {
	l.pos += len(bCDATA)
	end := bytes.Index(l.src[l.pos:], []byte("]]>"))
	if end < 0 {
		return nil, l.more(start, "unterminated CDATA section")
	}
	data := l.src[l.pos : l.pos+end]
	l.pos += end + 3
	return l.emit(Text, nil, data, start), nil
}

func (l *ByteLexer) lexDoctype(start Pos) (*ByteToken, error) {
	l.pos += len(bDoctype)
	depth := 0
	from := l.pos
	for ; l.pos < len(l.src); l.pos++ {
		switch c := l.src[l.pos]; c {
		case '[':
			depth++
		case ']':
			depth--
		case '"', '\'':
			q := bytes.IndexByte(l.src[l.pos+1:], c)
			if q < 0 {
				l.pos = len(l.src)
				return nil, l.more(start, "unterminated DOCTYPE declaration")
			}
			l.pos += 1 + q
		case '>':
			if depth == 0 {
				data := l.src[from:l.pos]
				l.pos++
				return l.emit(Doctype, nil, bytes.TrimSpace(data), start), nil
			}
		}
	}
	return nil, l.more(start, "unterminated DOCTYPE declaration")
}

func (l *ByteLexer) lexPI(start Pos) (*ByteToken, error) {
	l.pos += 2 // <?
	end := bytes.Index(l.src[l.pos:], []byte("?>"))
	if end < 0 {
		return nil, l.more(start, "unterminated processing instruction")
	}
	body := l.src[l.pos : l.pos+end]
	l.pos += end + 2
	name := body
	var data []byte
	if i := bytes.IndexAny(body, " \t\r\n"); i >= 0 {
		name, data = body[:i], bytes.TrimSpace(body[i:])
	}
	return l.emit(ProcInst, name, data, start), nil
}

func (l *ByteLexer) lexEndTag(start Pos) (*ByteToken, error) {
	l.pos += 2 // </
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) {
		return nil, l.more(start, "malformed end tag </%s", name)
	}
	if l.src[l.pos] != '>' {
		return nil, l.errf(start, "malformed end tag </%s", name)
	}
	l.pos++
	return l.emit(EndTag, name, nil, start), nil
}

func (l *ByteLexer) lexStartTag(start Pos) (*ByteToken, error) {
	l.pos++ // <
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.attrs = l.attrs[:0]
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return nil, l.more(start, "unterminated start tag <%s", name)
		}
		switch l.src[l.pos] {
		case '>':
			l.pos++
			t := l.emit(StartTag, name, nil, start)
			t.Attrs = l.attrs
			return t, nil
		case '/':
			if l.pos+1 >= len(l.src) || l.src[l.pos+1] != '>' {
				if l.streaming && l.pos+1 >= len(l.src) {
					return nil, errNeedMore // "/" may be the start of "/>"
				}
				return nil, l.errf(l.position(l.pos), "expected '/>' in tag <%s", name)
			}
			l.pos += 2
			l.pendName, l.pendPos, l.havePend = name, l.position(l.pos), true
			t := l.emit(StartTag, name, nil, start)
			t.Attrs, t.SelfClose = l.attrs, true
			return t, nil
		default:
			attr, err := l.lexAttr()
			if err != nil {
				return nil, err
			}
			// Linear scan instead of a per-tag set: tags have few attributes
			// and this keeps the hot path allocation-free.
			for _, a := range l.attrs {
				if bytes.Equal(a.Name, attr.Name) {
					return nil, l.errf(start, "duplicate attribute %q in tag <%s", attr.Name, name)
				}
			}
			l.attrs = append(l.attrs, attr)
		}
	}
}

func (l *ByteLexer) lexAttr() (ByteAttr, error) {
	name, err := l.lexName()
	if err != nil {
		return ByteAttr{}, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.more(l.position(l.pos), "attribute %q missing '='", name)
	}
	if l.src[l.pos] != '=' {
		return ByteAttr{}, l.errf(l.position(l.pos), "attribute %q missing '='", name)
	}
	l.pos++
	l.skipSpace()
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.more(l.position(l.pos), "attribute %q value must be quoted", name)
	}
	q := l.src[l.pos]
	if q != '"' && q != '\'' {
		return ByteAttr{}, l.errf(l.position(l.pos), "attribute %q value must be quoted", name)
	}
	l.pos++
	from := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != q && l.src[l.pos] != '&' && l.src[l.pos] != '<' {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == q {
		// Fast path: no entities, the value is a pure subslice.
		val := l.src[from:l.pos]
		l.pos++
		return ByteAttr{Name: name, Value: val}, nil
	}
	if l.streaming && l.pos >= len(l.src) {
		return ByteAttr{}, errNeedMore
	}
	valStart := len(l.scratch)
	l.scratch = append(l.scratch, l.src[from:l.pos]...)
	for l.pos < len(l.src) && l.src[l.pos] != q {
		if l.src[l.pos] == '&' {
			if err := l.appendEntity(); err != nil {
				return ByteAttr{}, err
			}
			continue
		}
		if l.src[l.pos] == '<' {
			return ByteAttr{}, l.errf(l.position(l.pos), "'<' not allowed in attribute value")
		}
		l.scratch = append(l.scratch, l.src[l.pos])
		l.pos++
	}
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.more(l.position(l.pos), "unterminated attribute value for %q", name)
	}
	l.pos++
	return ByteAttr{Name: name, Value: l.scratch[valStart:len(l.scratch):len(l.scratch)]}, nil
}

// lexName reads a name at the cursor: ASCII bytes through byteClass, and
// a rune at a time only from a byte >= 0x80 on.
func (l *ByteLexer) lexName() ([]byte, error) {
	start := l.pos
	if l.pos < len(l.src) && byteClass[l.src[l.pos]]&classNameStart != 0 {
		l.pos++
	} else if r, size := utf8.DecodeRune(l.src[l.pos:]); size > 0 && unicode.IsLetter(r) {
		l.pos += size
	} else {
		// Streaming: an empty window, or a RuneError from what may be a
		// multi-byte rune truncated by the window edge, can both resolve
		// after a refill. A RuneError with utf8.UTFMax bytes in hand is a
		// genuinely invalid byte and stays an error.
		if l.streaming && (size == 0 || (r == utf8.RuneError && size == 1 && len(l.src)-l.pos < utf8.UTFMax)) {
			return nil, errNeedMore
		}
		if l.streaming && len(l.src)-l.pos < 10 {
			// The error message quotes up to 10 bytes of context; refill so
			// the streamed message matches the whole-buffer one exactly.
			return nil, errNeedMore
		}
		return nil, l.errf(l.position(l.pos), "expected a name, found %q", l.src[l.pos:min(l.pos+10, len(l.src))])
	}
	for src, i := l.src, l.pos; ; {
		for i < len(src) && byteClass[src[i]]&className != 0 {
			i++
		}
		l.pos = i
		if i == len(src) || src[i] < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRune(src[i:])
		if r == utf8.RuneError && size == 1 && l.streaming && len(src)-i < utf8.UTFMax {
			return nil, errNeedMore // possibly a name rune split by the window edge
		}
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		i += size
	}
	if l.streaming && l.pos >= len(l.src) {
		return nil, errNeedMore // the name may continue past the window
	}
	return l.src[start:l.pos], nil
}

func (l *ByteLexer) skipSpace() {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classSpace != 0 {
		l.pos++
	}
}

// charRefValue parses the digits of a numeric character reference in the
// given base (10 or 16). It is strict — no signs, no trailing garbage, no
// values beyond the Unicode code space.
func charRefValue(digits []byte, base int32) (rune, bool) {
	if len(digits) == 0 {
		return 0, false
	}
	var n int32
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int32
		switch {
		case '0' <= c && c <= '9':
			d = int32(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = int32(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = int32(c-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
		if n > unicode.MaxRune {
			return 0, false
		}
	}
	return rune(n), true
}
