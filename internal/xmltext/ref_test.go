package xmltext

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// refByteLexer is a test-only reference lexer: the byte-at-a-time
// tokenizer this package shipped before ByteLexer moved to byte classes,
// scanned text runs and per-token positions. It tracks line and column on
// every byte it consumes and classifies name runes one by one, so it
// shares no fast path with ByteLexer. It lexes whole buffers only; the
// streaming front end is pinned to ByteLexer by FuzzChunkedLexer.
// FuzzLexVsReference holds ByteLexer to it: same tokens, positions and
// error texts on any input.
type refByteLexer struct {
	src       []byte
	pos       int
	line, col int
	tok       ByteToken
	attrs     []ByteAttr
	scratch   []byte
	pendTok   ByteToken
	havePend  bool
}

// refTokenizeBytes lexes src with the reference lexer and materializes
// owning tokens, as TokenizeBytes does with ByteLexer.
func refTokenizeBytes(src []byte) ([]Token, error) {
	lx := &refByteLexer{src: src, line: 1, col: 1}
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

func (l *refByteLexer) position() Pos { return Pos{Offset: l.pos, Line: l.line, Col: l.col} }

func (l *refByteLexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *refByteLexer) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

var (
	refComment = []byte("<!--")
	refCDATA   = []byte("<![CDATA[")
	refDoctype = []byte("<!DOCTYPE")
	refPI      = []byte("<?")
	refEndOpen = []byte("</")
	refSelfEnd = []byte("/>")
)

func (l *refByteLexer) Next() (*ByteToken, error) {
	if l.havePend {
		l.havePend = false
		l.tok = l.pendTok
		return &l.tok, nil
	}
	if l.pos >= len(l.src) {
		return nil, nil
	}
	l.scratch = l.scratch[:0]
	start := l.position()
	if l.src[l.pos] != '<' {
		return l.lexText(start)
	}
	rest := l.src[l.pos:]
	switch {
	case bytes.HasPrefix(rest, refComment):
		return l.lexComment(start)
	case bytes.HasPrefix(rest, refCDATA):
		return l.lexCDATA(start)
	case bytes.HasPrefix(rest, refDoctype):
		return l.lexDoctype(start)
	case bytes.HasPrefix(rest, refPI):
		return l.lexPI(start)
	case bytes.HasPrefix(rest, refEndOpen):
		return l.lexEndTag(start)
	default:
		return l.lexStartTag(start)
	}
}

func (l *refByteLexer) lexText(start Pos) (*ByteToken, error) {
	from := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '<' && l.src[l.pos] != '&' {
		l.advance(1)
	}
	if l.pos >= len(l.src) || l.src[l.pos] == '<' {
		l.tok = ByteToken{Kind: Text, Data: l.src[from:l.pos], Pos: start, End: l.pos}
		return &l.tok, nil
	}
	l.scratch = append(l.scratch, l.src[from:l.pos]...)
	for l.pos < len(l.src) && l.src[l.pos] != '<' {
		if l.src[l.pos] == '&' {
			if err := l.appendEntity(); err != nil {
				return nil, err
			}
			continue
		}
		l.scratch = append(l.scratch, l.src[l.pos])
		l.advance(1)
	}
	l.tok = ByteToken{Kind: Text, Data: l.scratch, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *refByteLexer) appendEntity() error {
	start := l.position()
	semi := bytes.IndexByte(l.src[l.pos:], ';')
	if semi < 0 || semi > 12 {
		return l.errf(start, "unterminated entity reference")
	}
	name := l.src[l.pos+1 : l.pos+semi]
	l.advance(semi + 1)
	if len(name) >= 2 && name[0] == '#' && (name[1] == 'x' || name[1] == 'X') {
		r, ok := refCharRefValue(name[2:], 16)
		if !ok {
			return l.errf(start, "bad character reference &%s;", name)
		}
		l.scratch = utf8.AppendRune(l.scratch, r)
		return nil
	}
	if len(name) >= 1 && name[0] == '#' {
		r, ok := refCharRefValue(name[1:], 10)
		if !ok {
			return l.errf(start, "bad character reference &%s;", name)
		}
		l.scratch = utf8.AppendRune(l.scratch, r)
		return nil
	}
	switch string(name) {
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
		return l.errf(start, "unknown entity &%s;", name)
	}
	return nil
}

func (l *refByteLexer) lexComment(start Pos) (*ByteToken, error) {
	l.advance(4)
	end := bytes.Index(l.src[l.pos:], []byte("-->"))
	if end < 0 {
		return nil, l.errf(start, "unterminated comment")
	}
	data := l.src[l.pos : l.pos+end]
	l.advance(end + 3)
	l.tok = ByteToken{Kind: Comment, Data: data, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *refByteLexer) lexCDATA(start Pos) (*ByteToken, error) {
	l.advance(9)
	end := bytes.Index(l.src[l.pos:], []byte("]]>"))
	if end < 0 {
		return nil, l.errf(start, "unterminated CDATA section")
	}
	data := l.src[l.pos : l.pos+end]
	l.advance(end + 3)
	l.tok = ByteToken{Kind: Text, Data: data, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *refByteLexer) lexDoctype(start Pos) (*ByteToken, error) {
	l.advance(len("<!DOCTYPE"))
	depth := 0
	from := l.pos
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '"', '\'':
			q := l.src[l.pos]
			l.advance(1)
			for l.pos < len(l.src) && l.src[l.pos] != q {
				l.advance(1)
			}
		case '>':
			if depth == 0 {
				data := l.src[from:l.pos]
				l.advance(1)
				l.tok = ByteToken{Kind: Doctype, Data: bytes.TrimSpace(data), Pos: start, End: l.pos}
				return &l.tok, nil
			}
		}
		l.advance(1)
	}
	return nil, l.errf(start, "unterminated DOCTYPE declaration")
}

func (l *refByteLexer) lexPI(start Pos) (*ByteToken, error) {
	l.advance(2)
	end := bytes.Index(l.src[l.pos:], []byte("?>"))
	if end < 0 {
		return nil, l.errf(start, "unterminated processing instruction")
	}
	body := l.src[l.pos : l.pos+end]
	l.advance(end + 2)
	name := body
	var data []byte
	if i := bytes.IndexAny(body, " \t\r\n"); i >= 0 {
		name, data = body[:i], bytes.TrimSpace(body[i:])
	}
	l.tok = ByteToken{Kind: ProcInst, Name: name, Data: data, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *refByteLexer) lexEndTag(start Pos) (*ByteToken, error) {
	l.advance(2)
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '>' {
		return nil, l.errf(start, "malformed end tag </%s", name)
	}
	l.advance(1)
	l.tok = ByteToken{Kind: EndTag, Name: name, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *refByteLexer) lexStartTag(start Pos) (*ByteToken, error) {
	l.advance(1)
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.attrs = l.attrs[:0]
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return nil, l.errf(start, "unterminated start tag <%s", name)
		}
		switch l.src[l.pos] {
		case '>':
			l.advance(1)
			l.tok = ByteToken{Kind: StartTag, Name: name, Attrs: l.attrs, Pos: start, End: l.pos}
			return &l.tok, nil
		case '/':
			if !bytes.HasPrefix(l.src[l.pos:], refSelfEnd) {
				return nil, l.errf(l.position(), "expected '/>' in tag <%s", name)
			}
			l.advance(2)
			l.pendTok = ByteToken{Kind: EndTag, Name: name, Pos: l.position(), End: l.pos}
			l.havePend = true
			l.tok = ByteToken{Kind: StartTag, Name: name, Attrs: l.attrs, SelfClose: true, Pos: start, End: l.pos}
			return &l.tok, nil
		default:
			attr, err := l.lexAttr()
			if err != nil {
				return nil, err
			}
			for _, a := range l.attrs {
				if bytes.Equal(a.Name, attr.Name) {
					return nil, l.errf(start, "duplicate attribute %q in tag <%s", attr.Name, name)
				}
			}
			l.attrs = append(l.attrs, attr)
		}
	}
}

func (l *refByteLexer) lexAttr() (ByteAttr, error) {
	name, err := l.lexName()
	if err != nil {
		return ByteAttr{}, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '=' {
		return ByteAttr{}, l.errf(l.position(), "attribute %q missing '='", name)
	}
	l.advance(1)
	l.skipSpace()
	if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
		return ByteAttr{}, l.errf(l.position(), "attribute %q value must be quoted", name)
	}
	q := l.src[l.pos]
	l.advance(1)
	from := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != q && l.src[l.pos] != '&' && l.src[l.pos] != '<' {
		l.advance(1)
	}
	if l.pos < len(l.src) && l.src[l.pos] == q {
		val := l.src[from:l.pos]
		l.advance(1)
		return ByteAttr{Name: name, Value: val}, nil
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
			return ByteAttr{}, l.errf(l.position(), "'<' not allowed in attribute value")
		}
		l.scratch = append(l.scratch, l.src[l.pos])
		l.advance(1)
	}
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.errf(l.position(), "unterminated attribute value for %q", name)
	}
	l.advance(1)
	return ByteAttr{Name: name, Value: l.scratch[valStart:len(l.scratch):len(l.scratch)]}, nil
}

func (l *refByteLexer) lexName() ([]byte, error) {
	start := l.pos
	r, size := utf8.DecodeRune(l.src[l.pos:])
	if size == 0 || !(r == '_' || r == ':' || unicode.IsLetter(r)) {
		return nil, l.errf(l.position(), "expected a name, found %q", l.src[l.pos:min(l.pos+10, len(l.src))])
	}
	l.advance(size)
	for l.pos < len(l.src) {
		r, size = utf8.DecodeRune(l.src[l.pos:])
		if !(r == '_' || r == ':' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)) {
			break
		}
		l.advance(size)
	}
	return l.src[start:l.pos], nil
}

func (l *refByteLexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.advance(1)
		default:
			return
		}
	}
}

func refCharRefValue(digits []byte, base int32) (rune, bool) {
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
