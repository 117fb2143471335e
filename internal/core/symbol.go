package core

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/dtd"
)

// Symbol is one token of an element-content sequence as produced by the
// paper's Δ_T operator: either an element name (the child's start/end tag
// pair, collapsed) or σ, a non-empty run of character data.
type Symbol struct {
	// Text marks the σ symbol; Name is empty then.
	Text bool
	// Name is the element name for non-text symbols.
	Name string
}

// Sigma is the σ symbol (a non-empty character-data run).
var Sigma = Symbol{Text: true}

// Elem returns the symbol for an element name.
func Elem(name string) Symbol { return Symbol{Name: name} }

// String renders the symbol as in the paper: the element name, or "σ".
func (s Symbol) String() string {
	if s.Text {
		return "σ"
	}
	return s.Name
}

// FormatSymbols renders a symbol sequence like the paper's examples:
// "b, e, c, σ".
func FormatSymbols(symbols []Symbol) string {
	parts := make([]string, len(symbols))
	for i, s := range symbols {
		parts[i] = s.String()
	}
	return strings.Join(parts, ", ")
}

// Elems is a convenience constructor: Elems("b","e","c") plus optional
// interleaving is covered by tests building slices directly.
func Elems(names ...string) []Symbol {
	out := make([]Symbol, len(names))
	for i, n := range names {
		out[i] = Elem(n)
	}
	return out
}

// ChildSymbols applies Δ_T to a DOM element node: its children, in document
// order, mapped to symbols. Consecutive text (already merged by the DOM
// layer) yields one σ; comments and processing instructions are invisible.
// Whitespace-only text yields no symbol when ignoreWS is set; the checker
// sets it for IgnoreWhitespaceText, except on an EMPTY element.
func ChildSymbols(n *dom.Node, ignoreWS bool) []Symbol {
	return appendChildSymbols(nil, n, ignoreWS)
}

// appendChildSymbols appends n's Δ_T sequence to out.
func appendChildSymbols(out []Symbol, n *dom.Node, ignoreWS bool) []Symbol {
	lastText := false
	for _, c := range n.Children {
		switch c.Kind {
		case dom.ElementNode:
			out = append(out, Elem(c.Name))
			lastText = false
		case dom.TextNode:
			if c.Data == "" || (ignoreWS && isWhitespace(c.Data)) {
				continue
			}
			// Adjacent text separated only by comments/PIs still collapses
			// to a single σ, matching δ_T ("all consecutive character
			// data ... replaced with a single σ").
			if !lastText {
				out = append(out, Sigma)
				lastText = true
			}
		default:
			// comments and PIs do not affect potential validity
		}
	}
	return out
}

func isWhitespace(s string) bool { return isSpace(s) }

// hidesSpaceIn reports whether whitespace-only text inside the element
// named name is hidden from the checker: IgnoreWhitespaceText is on and
// the element is not EMPTY. EMPTY content admits no character data, so no
// insertion makes whitespace there valid, and hiding it would call such a
// document potentially valid.
func (s *Schema) hidesSpaceIn(name string) bool {
	decl := s.DTD.Elements[name]
	return s.opts.IgnoreWhitespaceText && (decl == nil || decl.Category != dtd.Empty)
}
