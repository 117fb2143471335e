package core

import "repro/internal/dag"

// NaiveRecognizer is a literal transcription of the Figure 5 pseudocode,
// kept as an executable ablation of the two corrections the production
// Recognizer applies:
//
//  1. line 29 is applied as printed — a simple node matches its own element
//     tag even when its nested recognizer has already consumed input
//     (unsound: accepts content like c, b under a → (b, c), b → (c); pinned
//     by TestNaiveUnsoundLine29 and TestEngagedNodeCannotSelfMatch);
//  2. the active node set has set-of-DAG-nodes semantics — at most one
//     entry per DAG node — so an engaged entry shadows the fresh position
//     (incomplete: rejects content like b, σ, e, d under the Figure 1 DTD
//     once 1 is fixed; pinned by TestNaiveLine29MasksShadowing and
//     TestEngagedDoesNotShadowFreshPosition).
//
// It must never be used for real checking; tests use it to pin down the
// exact behavioral difference, and the ablation benchmark uses it to show
// the corrections are essentially free.
type NaiveRecognizer struct {
	schema  *Schema
	element string
	depth   int
	active  []*naiveEntry
	any     bool
	created *int
}

type naiveEntry struct {
	node *dag.Node
	sub  *NaiveRecognizer
}

// NewNaiveRecognizer builds the paper-literal recognizer with an explicit
// depth bound.
func (s *Schema) NewNaiveRecognizer(elem string, depth int) *NaiveRecognizer {
	counter := 0
	return s.newNaiveRecognizer(elem, depth, &counter)
}

func (s *Schema) newNaiveRecognizer(elem string, depth int, counter *int) *NaiveRecognizer {
	*counter++
	r := &NaiveRecognizer{schema: s, element: elem, depth: depth, created: counter}
	ed := s.DAG.Element(elem)
	if ed == nil {
		return r
	}
	if ed.Any {
		r.any = true
		return r
	}
	for _, n := range ed.Entry {
		r.active = append(r.active, &naiveEntry{node: n})
	}
	return r
}

// Created returns the number of recognizer objects constructed so far.
func (r *NaiveRecognizer) Created() int { return *r.created }

// Recognize is Figure 5's recognize(): feed all symbols.
func (r *NaiveRecognizer) Recognize(symbols []Symbol) bool {
	for _, x := range symbols {
		if !r.Validate(x) {
			return false
		}
	}
	return true
}

// Validate is Figure 5's validate() as printed, with set semantics on
// activeNodesSet.
func (r *NaiveRecognizer) Validate(x Symbol) bool {
	if r.any {
		return x.Text || r.schema.LT.Has(x.Name)
	}
	result := false
	queue := r.active
	inSet := make(map[int]bool, len(queue)*2)
	for _, e := range queue {
		inSet[e.node.ID] = true
	}
	var next []*naiveEntry
	var prepended []*naiveEntry

	appendChildren := func(n *dag.Node) {
		// Figure 5 lines 34-35: append children(n) to activeNodesSet —
		// same-symbol processing, set semantics.
		for _, s := range n.Succ {
			if !inSet[s.ID] {
				inSet[s.ID] = true
				queue = append(queue, &naiveEntry{node: s})
			}
		}
	}

	for i := 0; i < len(queue); i++ {
		e := queue[i]
		n := e.node
		if n.Type == dag.Group {
			// Lines 13-21.
			if r.groupMatchesNaive(n, x) {
				result = true
				next = append(next, e)
				continue
			}
			appendChildren(n)
			continue
		}
		y := n.Element
		// Lines 23-28.
		if r.symbolReachableFrom(y, x) {
			if e.sub == nil {
				e.sub = r.schema.newNaiveRecognizer(y, r.depth-1, r.created)
			}
			if e.sub.depth > 0 && e.sub.Validate(x) {
				result = true
				next = append(next, e)
				continue
			}
		}
		// Lines 29-33, as printed: no engagement check.
		if !x.Text && x.Name == y {
			result = true
			for _, s := range n.Succ {
				prepended = append(prepended, &naiveEntry{node: s})
			}
			continue
		}
		appendChildren(n)
	}

	if result {
		merged := append(prepended, next...)
		// Set semantics: one entry per DAG node.
		seen := map[int]bool{}
		out := merged[:0]
		for _, e := range merged {
			if seen[e.node.ID] {
				continue
			}
			seen[e.node.ID] = true
			out = append(out, e)
		}
		r.active = out
	}
	return result
}

func (r *NaiveRecognizer) groupMatchesNaive(n *dag.Node, x Symbol) bool {
	lt := r.schema.LT
	if x.Text {
		if n.HasPCDATA {
			return true
		}
		for _, y := range n.Elements {
			if lt.ReachesPCDATA(y) {
				return true
			}
		}
		return false
	}
	for _, y := range n.Elements {
		if y == x.Name || lt.Reachable(y, x.Name) {
			return true
		}
	}
	return false
}

func (r *NaiveRecognizer) symbolReachableFrom(y string, x Symbol) bool {
	if x.Text {
		return r.schema.LT.ReachesPCDATA(y)
	}
	return r.schema.LT.Reachable(y, x.Name)
}
