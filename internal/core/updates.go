package core

import (
	"fmt"

	"repro/internal/dom"
)

// This file implements the incremental update checks of Section 2 and
// Section 4: given a document already known to be potentially valid, decide
// whether an editing operation preserves potential validity — without
// re-checking the whole document.
//
//   - character-data update of an existing text node: always preserves PV
//     (Theorem 2); O(1).
//   - markup deletion (unwrapping an element): always preserves PV
//     (Theorem 2); O(1).
//   - character-data insertion (a new text node under element x): preserves
//     PV iff x ⇝ #PCDATA (Proposition 3); O(1) via the lookup table.
//   - markup insertion (wrapping children [i,j) of t in a new element δ):
//     preserves PV iff Problem ECPV holds for the new node and for its
//     parent ("checking potential validity for markup insertion ... reduces
//     to solving twice Problem ECPV", Section 4).

// CanUpdateText reports whether changing the characters of an existing text
// node preserves potential validity. By Theorem 2 it always does; the
// method exists so call sites document their reasoning and remains O(1).
func (s *Schema) CanUpdateText(n *dom.Node) error {
	if n.Kind != dom.TextNode {
		return fmt.Errorf("core: CanUpdateText on a %v node", n.Kind)
	}
	return nil
}

// CanDeleteMarkup reports whether unwrapping element n (splicing its
// children into its parent) preserves potential validity. By Theorem 2
// deletion always preserves PV; only structural preconditions are checked.
func (s *Schema) CanDeleteMarkup(n *dom.Node) error {
	if n.Kind != dom.ElementNode {
		return fmt.Errorf("core: CanDeleteMarkup on a %v node", n.Kind)
	}
	if n.Parent == nil {
		return fmt.Errorf("core: cannot delete the root element's markup")
	}
	return nil
}

// CanInsertText reports whether creating a new text node under parent
// preserves potential validity — the O(1) check of Proposition 3.
func (s *Schema) CanInsertText(parent *dom.Node) error {
	if parent.Kind != dom.ElementNode {
		return fmt.Errorf("core: CanInsertText under a %v node", parent.Kind)
	}
	if !s.LT.Has(parent.Name) {
		return fmt.Errorf("core: element <%s> is not declared", parent.Name)
	}
	if !s.LT.ReachesPCDATA(parent.Name) {
		return fmt.Errorf("core: character data cannot occur inside <%s> (no path to #PCDATA)", parent.Name)
	}
	return nil
}

// CanInsertMarkup reports whether wrapping children [i, j) of parent in a
// new element named name preserves potential validity. It solves Problem
// ECPV twice — once for the hypothetical new node's content, once for the
// parent's updated child sequence — without mutating the document.
func (s *Schema) CanInsertMarkup(parent *dom.Node, i, j int, name string) error {
	if parent.Kind != dom.ElementNode {
		return fmt.Errorf("core: CanInsertMarkup under a %v node", parent.Kind)
	}
	if i < 0 || j < i || j > len(parent.Children) {
		return fmt.Errorf("core: child range [%d,%d) out of bounds [0,%d]", i, j, len(parent.Children))
	}
	if !s.LT.Has(name) {
		return fmt.Errorf("core: element <%s> is not declared", name)
	}
	if !s.LT.Has(parent.Name) {
		return fmt.Errorf("core: element <%s> is not declared", parent.Name)
	}
	// ECPV for the inserted node: the wrapped children become its content.
	inner := rangeSymbols(parent, i, j, s.hidesSpaceIn(name))
	if !s.CheckContent(name, inner) {
		return fmt.Errorf("core: content [%s] is not potentially valid inside a new <%s>",
			FormatSymbols(inner), name)
	}
	// ECPV for the parent: the wrapped range is replaced by one <name>
	// symbol.
	outer := rangeSymbols(parent, 0, i, s.hidesSpaceIn(parent.Name))
	outer = append(outer, Elem(name))
	tail := rangeSymbols(parent, j, len(parent.Children), s.hidesSpaceIn(parent.Name))
	outer = append(outer, tail...)
	if !s.CheckContent(parent.Name, outer) {
		return fmt.Errorf("core: inserting <%s> makes the content of <%s> not potentially valid: [%s]",
			name, parent.Name, FormatSymbols(outer))
	}
	return nil
}

// rangeSymbols maps children [i,j) of n to Δ_T symbols (like ChildSymbols
// but over a sub-range; adjacent text inside the range collapses).
func rangeSymbols(n *dom.Node, i, j int, ignoreWS bool) []Symbol {
	var out []Symbol
	lastText := false
	for _, c := range n.Children[i:j] {
		switch c.Kind {
		case dom.ElementNode:
			out = append(out, Elem(c.Name))
			lastText = false
		case dom.TextNode:
			if c.Data == "" || (ignoreWS && isWhitespace(c.Data)) {
				continue
			}
			if !lastText {
				out = append(out, Sigma)
				lastText = true
			}
		}
	}
	return out
}
