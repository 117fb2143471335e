package core

import (
	"fmt"
	"slices"

	"repro/internal/dom"
)

// Violation describes why a document failed the potential-validity check.
type Violation struct {
	// Node is the element whose content (or name) is at fault.
	Node *dom.Node
	// Element is the node's element name ("" for a root-name mismatch on a
	// nil node — impossible in practice; kept for symmetry).
	Element string
	// SymbolIndex is the index of the first rejected symbol of the node's
	// Δ_T sequence, or -1 when the problem is not content (undeclared
	// element, wrong root).
	SymbolIndex int
	// Symbols is the node's Δ_T sequence, for diagnostics.
	Symbols []Symbol
	// Reason is a human-readable explanation.
	Reason string
}

// String renders the violation's reason; a nil violation reads
// "potentially valid".
func (v *Violation) String() string {
	if v == nil {
		return "potentially valid"
	}
	return v.Reason
}

// CheckDocument solves Problem PV for a parsed document: it checks
// potential validity of every node (Problem ECPV via Δ_T, Section 4) and
// returns nil if the document is potentially valid w.r.t. the schema, or a
// Violation describing the first failure in document order.
func (s *Schema) CheckDocument(root *dom.Node) *Violation {
	if root.Kind != dom.ElementNode {
		return &Violation{Node: root, SymbolIndex: -1, Reason: "root is not an element node"}
	}
	if !s.opts.AllowAnyRoot && root.Name != s.Root {
		return &Violation{
			Node: root, Element: root.Name, SymbolIndex: -1,
			Reason: fmt.Sprintf("root element is <%s>, schema requires <%s>", root.Name, s.Root),
		}
	}
	if s.opts.AllowAnyRoot && !s.LT.Has(root.Name) {
		return &Violation{
			Node: root, Element: root.Name, SymbolIndex: -1,
			Reason: fmt.Sprintf("root element <%s> is not declared", root.Name),
		}
	}
	c := nodeChecker{s: s}
	var violation *Violation
	root.Walk(func(n *dom.Node) bool {
		if violation != nil || n.Kind != dom.ElementNode {
			return false
		}
		if v := c.check(n); v != nil {
			violation = v
			return false
		}
		return true
	})
	return violation
}

// nodeChecker runs Problem ECPV node by node for one CheckDocument call,
// recycling one recognizer (through reinit) and one symbol buffer across
// the document's elements.
type nodeChecker struct {
	s   *Schema
	rec *Recognizer
	buf []Symbol
}

// check runs Problem ECPV on one element node. A returned Violation owns
// its Symbols; the buffer stays with the checker.
func (c *nodeChecker) check(n *dom.Node) *Violation {
	s := c.s
	if !s.LT.Has(n.Name) {
		return &Violation{
			Node: n, Element: n.Name, SymbolIndex: -1,
			Reason: fmt.Sprintf("element <%s> is not declared in the DTD", n.Name),
		}
	}
	c.buf = appendChildSymbols(c.buf[:0], n, s.hidesSpaceIn(n.Name))
	if c.rec == nil {
		c.rec = s.NewRecognizer(n.Name)
	} else {
		c.rec.reinit(s, n.Name, s.depth)
	}
	if idx := validPrefix(c.rec, c.buf); idx < len(c.buf) {
		symbols := slices.Clone(c.buf)
		return &Violation{
			Node: n, Element: n.Name, SymbolIndex: idx, Symbols: symbols,
			Reason: fmt.Sprintf("content of <%s> is not potentially valid: symbol %s rejected at position %d of [%s]",
				n.Name, symbols[idx], idx, FormatSymbols(symbols)),
		}
	}
	return nil
}

// CheckNodeContent runs Problem ECPV for a single node without descending:
// it checks only n's own child sequence. Exposed for incremental checking.
func (s *Schema) CheckNodeContent(n *dom.Node) bool {
	if !s.LT.Has(n.Name) {
		return false
	}
	return s.CheckContent(n.Name, ChildSymbols(n, s.hidesSpaceIn(n.Name)))
}

// CheckString parses an XML string and checks potential validity.
func (s *Schema) CheckString(xml string) (*Violation, error) {
	doc, err := dom.Parse(xml)
	if err != nil {
		return nil, err
	}
	return s.CheckDocument(doc.Root), nil
}
