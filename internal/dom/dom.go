// Package dom implements the document tree model of the paper (Figure 2):
// a mutable tree of element and text nodes with document-order traversal,
// depth computation, serialization, and the splice operations that the
// potential-validity update theory is stated over — markup insertion
// (wrapping a consecutive run of siblings in a new element), markup
// deletion (unwrapping an element into its parent), and character-data
// insertion/update/deletion.
package dom

import (
	"fmt"
	"strings"

	"repro/internal/xmltext"
)

// NodeKind identifies the kind of a tree node.
type NodeKind int

const (
	// ElementNode is an element with a name, attributes and children.
	ElementNode NodeKind = iota
	// TextNode is character data.
	TextNode
	// CommentNode preserves a comment; ignored by all checkers.
	CommentNode
	// ProcInstNode preserves a processing instruction; ignored by checkers.
	ProcInstNode
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "pi"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a node of the document tree.
type Node struct {
	Kind     NodeKind
	Name     string // element name or PI target
	Data     string // text, comment or PI content
	Attrs    []xmltext.Attr
	Parent   *Node
	Children []*Node
}

// NewElement returns a parentless element node.
func NewElement(name string, children ...*Node) *Node {
	n := &Node{Kind: ElementNode, Name: name}
	for _, c := range children {
		n.Append(c)
	}
	return n
}

// NewText returns a parentless text node.
func NewText(data string) *Node { return &Node{Kind: TextNode, Data: data} }

// Append adds c as the last child of n and sets its parent pointer.
func (n *Node) Append(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertChild inserts c at index i among n's children (0 ≤ i ≤ len).
func (n *Node) InsertChild(i int, c *Node) {
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("dom: InsertChild index %d out of range [0,%d]", i, len(n.Children)))
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// ChildIndex returns the index of c among n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, ch := range n.Children {
		if ch == c {
			return i
		}
	}
	return -1
}

// RemoveChildAt removes and returns the child at index i.
func (n *Node) RemoveChildAt(i int) *Node {
	c := n.Children[i]
	n.Children = append(n.Children[:i], n.Children[i+1:]...)
	c.Parent = nil
	return c
}

// WrapChildren replaces children [i, j) of n with a new element named name
// whose children are the wrapped nodes — the paper's markup-insertion
// operation (Definition 2: w1<δ>w2</δ>w3). It returns the new element.
func (n *Node) WrapChildren(i, j int, name string) *Node {
	if i < 0 || j < i || j > len(n.Children) {
		panic(fmt.Sprintf("dom: WrapChildren range [%d,%d) out of bounds [0,%d]", i, j, len(n.Children)))
	}
	wrapped := make([]*Node, j-i)
	copy(wrapped, n.Children[i:j])
	elem := &Node{Kind: ElementNode, Name: name, Parent: n}
	for _, c := range wrapped {
		c.Parent = elem
	}
	elem.Children = wrapped
	rest := append([]*Node{elem}, n.Children[j:]...)
	n.Children = append(n.Children[:i:i], rest...)
	return elem
}

// Unwrap removes element node c from its parent, splicing c's children into
// the parent at c's position — the paper's markup-deletion operation. It
// panics if c has no parent (the root cannot be unwrapped in place).
func (c *Node) Unwrap() {
	p := c.Parent
	if p == nil {
		panic("dom: Unwrap on a parentless node")
	}
	i := p.ChildIndex(c)
	for _, g := range c.Children {
		g.Parent = p
	}
	tail := make([]*Node, 0, len(c.Children)+len(p.Children)-i-1)
	tail = append(tail, c.Children...)
	tail = append(tail, p.Children[i+1:]...)
	p.Children = append(p.Children[:i:i], tail...)
	c.Parent = nil
	c.Children = nil
}

// Depth returns the height of the subtree rooted at n, counting n itself:
// a leaf element has depth 1. Text nodes do not add depth.
func (n *Node) Depth() int {
	if n.Kind != ElementNode {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Walk visits n and all descendants in document order (preorder). If fn
// returns false the walk skips the node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Elements returns all element nodes in the subtree in document order,
// including n itself if it is an element.
func (n *Node) Elements() []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Kind == ElementNode {
			out = append(out, x)
		}
		return true
	})
	return out
}

// ElementNames returns the set of element names used in the subtree — the
// paper's elements(w).
func (n *Node) ElementNames() map[string]bool {
	set := map[string]bool{}
	n.Walk(func(x *Node) bool {
		if x.Kind == ElementNode {
			set[x.Name] = true
		}
		return true
	})
	return set
}

// Content returns the concatenation of all character data in document
// order — the paper's content(w) operator.
func (n *Node) Content() string {
	var b strings.Builder
	n.Walk(func(x *Node) bool {
		if x.Kind == TextNode {
			b.WriteString(x.Data)
		}
		return true
	})
	return b.String()
}

// CountNodes returns the number of element and text nodes in the subtree.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(x *Node) bool {
		if x.Kind == ElementNode || x.Kind == TextNode {
			count++
		}
		return true
	})
	return count
}

// Clone returns a deep copy of the subtree with a nil parent.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	if len(n.Attrs) > 0 {
		c.Attrs = append([]xmltext.Attr(nil), n.Attrs...)
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, 0, len(n.Children))
	}
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// String serializes the subtree back to XML text. Empty elements serialize
// as a start/end tag pair (never the self-closing form) so that the output
// round-trips through the paper's string-based definitions unambiguously.
func (n *Node) String() string {
	return string(n.AppendXML(nil))
}

// AppendXML serializes the subtree to XML text appended to buf, returning
// the extended slice — the allocation-free twin of String for callers
// holding a reusable (pooled) buffer. The output is byte-identical to
// String's. Text escaping is inlined (no per-node replacer), so a subtree
// with many text nodes serializes with no allocations beyond buffer
// growth.
func (n *Node) AppendXML(buf []byte) []byte {
	switch n.Kind {
	case TextNode:
		buf = appendEscapedText(buf, n.Data)
	case CommentNode:
		buf = append(buf, "<!--"...)
		buf = append(buf, n.Data...)
		buf = append(buf, "-->"...)
	case ProcInstNode:
		buf = append(buf, "<?"...)
		buf = append(buf, n.Name...)
		if n.Data != "" {
			buf = append(buf, ' ')
			buf = append(buf, n.Data...)
		}
		buf = append(buf, "?>"...)
	case ElementNode:
		buf = append(buf, '<')
		buf = append(buf, n.Name...)
		for _, a := range n.Attrs {
			buf = append(buf, ' ')
			buf = append(buf, a.Name...)
			buf = append(buf, '=', '"')
			buf = appendEscapedAttr(buf, a.Value)
			buf = append(buf, '"')
		}
		buf = append(buf, '>')
		for _, c := range n.Children {
			buf = c.AppendXML(buf)
		}
		buf = append(buf, "</"...)
		buf = append(buf, n.Name...)
		buf = append(buf, '>')
	}
	return buf
}

// appendEscapedText appends s with the character-data escapes of
// xmltext.EscapeText (&, <, >) without building a replacer.
func appendEscapedText(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// appendEscapedAttr appends an attribute value for writing between double
// quotes: &, < and " escaped, and tab, LF and CR as character references,
// which a conforming parser reads back as themselves instead of
// normalizing them to spaces.
func appendEscapedAttr(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '"':
			buf = append(buf, "&quot;"...)
		case '\t':
			buf = append(buf, "&#9;"...)
		case '\n':
			buf = append(buf, "&#10;"...)
		case '\r':
			buf = append(buf, "&#13;"...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// Equal reports whether two subtrees are structurally identical (kinds,
// names, data, attributes and child structure).
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Kind != o.Kind || n.Name != o.Name || n.Data != o.Data || len(n.Children) != len(o.Children) || len(n.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range n.Attrs {
		if n.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Validate checks internal tree invariants (parent pointers and kinds) and
// returns a descriptive error for the first violation. Used by tests and
// after editor operations.
func (n *Node) Validate() error {
	for _, c := range n.Children {
		if c.Parent != n {
			return fmt.Errorf("dom: child %v of %v has wrong parent pointer", c.Name, n.Name)
		}
		if n.Kind != ElementNode {
			return fmt.Errorf("dom: non-element node %v has children", n.Kind)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}
