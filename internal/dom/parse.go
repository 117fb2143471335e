package dom

import (
	"fmt"

	"repro/internal/xmltext"
)

// Document is a parsed XML document: a root element plus any comments and
// processing instructions found outside it.
type Document struct {
	Root *Node
	// Prolog holds comment/PI nodes appearing before the root element.
	Prolog []*Node
	// Epilog holds comment/PI nodes appearing after the root element.
	Epilog []*Node
}

// WellFormed applies the tree builder's well-formedness rules to a token
// stream, one token at a time: properly nested matching tags, a single
// root element, and nothing but whitespace, comments and PIs outside the
// root. ParseBytes and the completer's byte path (internal/complete) both
// read their verdicts, and so their error texts, from here. The open
// element names alias the lexed input, so the input must stay unchanged
// while they are held; Reset drops them.
type WellFormed struct {
	open [][]byte // names of the open elements, innermost last
	root []byte   // the root element's name, once seen
}

// Reset readies w for a new document, keeping its stack's capacity and
// dropping every reference into the previous input.
func (w *WellFormed) Reset() {
	clear(w.open[:cap(w.open)])
	w.open = w.open[:0]
	w.root = nil
}

// Token checks one token and returns the tree builder's error for it, if
// any.
func (w *WellFormed) Token(tok *xmltext.ByteToken) error {
	switch tok.Kind {
	case xmltext.StartTag:
		if len(w.open) == 0 {
			if w.root != nil {
				return fmt.Errorf("xml: multiple root elements (<%s> after <%s>)", tok.Name, w.root)
			}
			w.root = tok.Name
		}
		w.open = append(w.open, tok.Name)
	case xmltext.EndTag:
		n := len(w.open)
		if n == 0 {
			return fmt.Errorf("xml: %s: unexpected end tag </%s>", tok.Pos, tok.Name)
		}
		if string(w.open[n-1]) != string(tok.Name) {
			return fmt.Errorf("xml: %s: end tag </%s> does not match open <%s>", tok.Pos, tok.Name, w.open[n-1])
		}
		w.open = w.open[:n-1]
	case xmltext.Text:
		if len(w.open) == 0 && !isWhitespace(tok.Data) {
			return fmt.Errorf("xml: character data outside the root element: %.20q", tok.Data)
		}
	}
	return nil
}

// End checks the end of the document: every element closed and a root
// element seen.
func (w *WellFormed) End() error {
	if n := len(w.open); n > 0 {
		return fmt.Errorf("xml: unclosed element <%s>", w.open[n-1])
	}
	if w.root == nil {
		return fmt.Errorf("xml: no root element")
	}
	return nil
}

// treeBuilder assembles a Document from a token stream, one token at a
// time, once WellFormed has accepted the token. It consumes the zero-copy
// lexer's reused tokens directly and materializes only the names, data
// and attributes the tree retains.
type treeBuilder struct {
	wf    WellFormed
	doc   Document
	stack []*Node
}

func (b *treeBuilder) push(n *Node) {
	switch {
	case len(b.stack) > 0:
		b.stack[len(b.stack)-1].Append(n)
	case n.Kind == ElementNode:
		b.doc.Root = n
	case n.Kind == TextNode:
		// whitespace between top-level constructs is dropped
	case b.doc.Root == nil:
		b.doc.Prolog = append(b.doc.Prolog, n)
	default:
		b.doc.Epilog = append(b.doc.Epilog, n)
	}
}

// add consumes one token. The token is transient (the lexer reuses it and
// its slices alias the input), so everything the tree keeps is copied.
func (b *treeBuilder) add(tok *xmltext.ByteToken) error {
	if err := b.wf.Token(tok); err != nil {
		return err
	}
	switch tok.Kind {
	case xmltext.StartTag:
		t := tok.Token()
		n := &Node{Kind: ElementNode, Name: t.Name, Attrs: t.Attrs}
		b.push(n)
		b.stack = append(b.stack, n)
	case xmltext.EndTag:
		b.stack = b.stack[:len(b.stack)-1]
	case xmltext.Text:
		if len(tok.Data) > 0 {
			b.push(&Node{Kind: TextNode, Data: string(tok.Data)})
		}
	case xmltext.Comment:
		b.push(&Node{Kind: CommentNode, Data: string(tok.Data)})
	case xmltext.ProcInst:
		b.push(&Node{Kind: ProcInstNode, Name: string(tok.Name), Data: string(tok.Data)})
	case xmltext.Doctype:
		// A DOCTYPE declaration in the instance is tolerated and ignored;
		// the DTD is supplied separately in this system.
	}
	return nil
}

// finish validates the end state and returns the document.
func (b *treeBuilder) finish() (*Document, error) {
	if err := b.wf.End(); err != nil {
		return nil, err
	}
	// Merge adjacent text nodes produced by entity/CDATA boundaries so that
	// the tree matches the paper's model, where consecutive character data
	// is a single text node (and δ_T maps it to a single σ).
	mergeText(b.doc.Root)
	return &b.doc, nil
}

// Parse parses an XML string into a document tree, reading src in place
// through xmltext.View.
func Parse(src string) (*Document, error) { return ParseBytes(xmltext.View(src)) }

// ParseBytes parses an XML byte slice into a document tree. Tokens come
// from the zero-copy lexer; only what the tree retains is copied into
// strings, so the resulting document does not pin the input buffer.
func ParseBytes(src []byte) (*Document, error) {
	var b treeBuilder
	lx := xmltext.NewByteLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return b.finish()
		}
		if err := b.add(tok); err != nil {
			return nil, err
		}
	}
}

// MustParse is Parse that panics on error; intended for tests and fixtures.
func MustParse(src string) *Document {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseRoot parses src and returns just the root element.
func ParseRoot(src string) (*Node, error) {
	d, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return d.Root, nil
}

func mergeText(n *Node) {
	out := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind == TextNode && len(out) > 0 && out[len(out)-1].Kind == TextNode {
			out[len(out)-1].Data += c.Data
			continue
		}
		out = append(out, c)
		if c.Kind == ElementNode {
			mergeText(c)
		}
	}
	n.Children = out
}

func isWhitespace[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// String serializes the document: prolog nodes, root, epilog nodes.
func (d *Document) String() string {
	return string(d.AppendXML(nil))
}

// AppendXML serializes the document (prolog, root, epilog) appended to
// buf — the pooled-buffer twin of String, byte-identical output.
func (d *Document) AppendXML(buf []byte) []byte {
	for _, n := range d.Prolog {
		buf = n.AppendXML(buf)
	}
	buf = d.Root.AppendXML(buf)
	for _, n := range d.Epilog {
		buf = n.AppendXML(buf)
	}
	return buf
}
