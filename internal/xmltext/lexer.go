// Package xmltext tokenizes document-centric XML. It is a deliberately
// small, self-contained lexer (the standard library's encoding/xml has no
// DTD machinery and normalizes away details we need, such as exact text
// segmentation and byte offsets for editor operations).
//
// The lexer recognizes start tags with attributes, end tags, self-closing
// tags, character data, CDATA sections, comments, processing instructions,
// a DOCTYPE declaration, and the five predefined entity references. It
// reports positions as byte offsets plus line/column, which the editor
// layer uses to address update operations.
//
// There is one tokenizer, ByteLexer (bytes.go), and one streaming front end
// over it, ChunkedLexer (chunked.go). String inputs reach it through View;
// Lexer and Tokenize are adapters that materialize owning Tokens.
package xmltext

import (
	"fmt"
	"strings"
	"unsafe"
)

// TokenKind identifies the kind of a lexical token.
type TokenKind int

const (
	// StartTag is <name attr="v" ...> (or the open half of <name/>).
	StartTag TokenKind = iota
	// EndTag is </name>. Self-closing tags emit StartTag (SelfClose=true)
	// followed by a synthetic EndTag at the same position.
	EndTag
	// Text is character data (entity references resolved, CDATA unwrapped).
	Text
	// Comment is <!-- ... --> with the delimiters stripped.
	Comment
	// ProcInst is <?target data?> with the delimiters stripped.
	ProcInst
	// Doctype is a <!DOCTYPE ...> declaration, raw contents.
	Doctype
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case StartTag:
		return "StartTag"
	case EndTag:
		return "EndTag"
	case Text:
		return "Text"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	case Doctype:
		return "Doctype"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Attr is one attribute of a start tag.
type Attr struct {
	Name  string
	Value string
}

// Pos is a position in the source.
type Pos struct {
	Offset int // byte offset
	Line   int // 1-based
	Col    int // 1-based, in bytes
}

// String renders the position in the "line L, col C" form used by
// SyntaxError messages.
func (p Pos) String() string { return fmt.Sprintf("line %d, col %d", p.Line, p.Col) }

// Token is a single lexical token that owns its strings.
type Token struct {
	Kind      TokenKind
	Name      string // element name for StartTag/EndTag, target for ProcInst
	Data      string // text content, comment body, PI data
	Attrs     []Attr // attributes for StartTag
	SelfClose bool   // true for <name/>; a synthetic EndTag follows
	Pos       Pos    // start position of the token
	End       int    // byte offset one past the token
}

// SyntaxError is a lexical error with position information.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface: "xml: line L, col C: msg".
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: %s: %s", e.Pos, e.Msg)
}

// View returns the bytes of s without copying them: the one way a string
// document enters the byte path. The slice aliases the string's memory,
// which may be read-only (string literals live in the binary's rodata), so
// nothing may ever write through it. Every consumer in this repository only
// reads its input — ByteLexer decodes entity references into its own
// scratch buffer, never in place — and that is what makes the view safe.
func View(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Lexer tokenizes an XML string into owning Tokens: an adapter over
// ByteLexer reading the string through View.
type Lexer struct{ bl ByteLexer }

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	l := &Lexer{}
	l.bl.Reset(View(src))
	return l
}

// Next returns the next token, or (nil, nil) at end of input.
func (l *Lexer) Next() (*Token, error) {
	bt, err := l.bl.Next()
	if bt == nil || err != nil {
		return nil, err
	}
	tok := bt.Token()
	return &tok, nil
}

// Tokenize lexes the entire string.
func Tokenize(src string) ([]Token, error) { return TokenizeBytes(View(src)) }

// EscapeText escapes character data for serialization.
func EscapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
