// Package editor implements a document-centric XML editing session in the
// style of xTagger ([10] in the paper): the document starts as raw text (or
// any potentially valid state) and the user layers markup over it. Every
// operation is guarded by the incremental potential-validity checks of
// Sections 2 and 4 — an operation that would make the document impossible
// to complete into a valid one is refused — so the session maintains the
// invariant that the working document is always potentially valid.
package editor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dom"
)

// OpKind identifies an editing operation.
type OpKind int

const (
	// OpInsertMarkup wraps a consecutive child range in a new element.
	OpInsertMarkup OpKind = iota
	// OpDeleteMarkup unwraps an element into its parent.
	OpDeleteMarkup
	// OpInsertText creates a new text node.
	OpInsertText
	// OpUpdateText replaces the characters of an existing text node.
	OpUpdateText
	// OpDeleteText removes a text node entirely.
	OpDeleteText
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpInsertMarkup:
		return "insert-markup"
	case OpDeleteMarkup:
		return "delete-markup"
	case OpInsertText:
		return "insert-text"
	case OpUpdateText:
		return "update-text"
	case OpDeleteText:
		return "delete-text"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Stats counts session activity.
type Stats struct {
	Applied int // operations that passed the guard and were applied
	Refused int // operations refused by the potential-validity guard
	ByKind  map[OpKind]int
	Checks  int // incremental guard checks performed
}

// Session is a guarded editing session over one document.
type Session struct {
	schema *core.Schema
	root   *dom.Node
	stats  Stats
	undo   []func()
}

// NewSession starts a session on a document that must already be
// potentially valid (e.g. the bare <root>text</root> starting point of a
// document-centric encoding project).
func NewSession(schema *core.Schema, root *dom.Node) (*Session, error) {
	if err := schema.NewStreamChecker().RunTree(root); err != nil {
		return nil, fmt.Errorf("editor: initial document is not potentially valid: %v", err)
	}
	return &Session{schema: schema, root: root, stats: Stats{ByKind: map[OpKind]int{}}}, nil
}

// Root returns the document being edited.
func (s *Session) Root() *dom.Node { return s.root }

// Schema returns the schema guarding the session.
func (s *Session) Schema() *core.Schema { return s.schema }

// Stats returns a copy of the session counters.
func (s *Session) Stats() Stats {
	out := s.stats
	out.ByKind = make(map[OpKind]int, len(s.stats.ByKind))
	for k, v := range s.stats.ByKind {
		out.ByKind[k] = v
	}
	return out
}

func (s *Session) refuse(kind OpKind, err error) error {
	s.stats.Refused++
	return fmt.Errorf("editor: %s refused: %w", kind, err)
}

func (s *Session) applied(kind OpKind, inverse func()) {
	s.stats.Applied++
	s.stats.ByKind[kind]++
	s.undo = append(s.undo, inverse)
}

// InsertMarkup wraps children [i, j) of parent in a new element named name.
// Guard: two ECPV checks (Section 4). Returns the new element.
func (s *Session) InsertMarkup(parent *dom.Node, i, j int, name string) (*dom.Node, error) {
	s.stats.Checks++
	if err := s.schema.CanInsertMarkup(parent, i, j, name); err != nil {
		return nil, s.refuse(OpInsertMarkup, err)
	}
	elem := parent.WrapChildren(i, j, name)
	s.applied(OpInsertMarkup, func() { elem.Unwrap() })
	return elem, nil
}

// DeleteMarkup unwraps element n. Guard: always allowed on non-root
// elements (Theorem 2).
func (s *Session) DeleteMarkup(n *dom.Node) error {
	s.stats.Checks++
	if err := s.schema.CanDeleteMarkup(n); err != nil {
		return s.refuse(OpDeleteMarkup, err)
	}
	parent := n.Parent
	at := parent.ChildIndex(n)
	count := len(n.Children)
	n.Unwrap()
	s.applied(OpDeleteMarkup, func() {
		restored := parent.WrapChildren(at, at+count, n.Name)
		restored.Attrs = n.Attrs
	})
	return nil
}

// InsertText creates a new text node at child index i of parent. Guard:
// Proposition 3's O(1) reachability check.
func (s *Session) InsertText(parent *dom.Node, i int, text string) (*dom.Node, error) {
	s.stats.Checks++
	if err := s.schema.CanInsertText(parent); err != nil {
		return nil, s.refuse(OpInsertText, err)
	}
	if i < 0 || i > len(parent.Children) {
		return nil, s.refuse(OpInsertText, fmt.Errorf("index %d out of range", i))
	}
	node := dom.NewText(text)
	parent.InsertChild(i, node)
	s.applied(OpInsertText, func() {
		parent.RemoveChildAt(parent.ChildIndex(node))
	})
	return node, nil
}

// UpdateText replaces the characters of text node n. Guard: always allowed
// (Theorem 2).
func (s *Session) UpdateText(n *dom.Node, text string) error {
	s.stats.Checks++
	if err := s.schema.CanUpdateText(n); err != nil {
		return s.refuse(OpUpdateText, err)
	}
	old := n.Data
	n.Data = text
	s.applied(OpUpdateText, func() { n.Data = old })
	return nil
}

// DeleteText removes text node n entirely — a character-data deletion,
// which preserves potential validity (Theorem 2).
func (s *Session) DeleteText(n *dom.Node) error {
	s.stats.Checks++
	if n.Kind != dom.TextNode || n.Parent == nil {
		return s.refuse(OpDeleteText, fmt.Errorf("not a deletable text node"))
	}
	parent := n.Parent
	at := parent.ChildIndex(n)
	parent.RemoveChildAt(at)
	s.applied(OpDeleteText, func() { parent.InsertChild(at, n) })
	return nil
}

// Undo reverts the most recent applied operation. It returns false when
// there is nothing to undo.
func (s *Session) Undo() bool {
	if len(s.undo) == 0 {
		return false
	}
	last := s.undo[len(s.undo)-1]
	s.undo = s.undo[:len(s.undo)-1]
	last()
	return true
}

// Check re-verifies the whole document; the session invariant means it
// should always return nil — exposed for tests and paranoia.
func (s *Session) Check() error {
	if err := s.schema.NewStreamChecker().RunTree(s.root); err != nil {
		return fmt.Errorf("editor: invariant broken: %v", err)
	}
	return nil
}
