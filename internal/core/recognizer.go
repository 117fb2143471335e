package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
)

// Recognizer is the ECRecognizer of Figure 5: a greedy online recognizer
// for one element's content. Symbols are fed one at a time via Validate (or
// in bulk via Recognize); the recognizer maintains the paper's active node
// set over the element's DAG, creating nested recognizers lazily when an
// input symbol can only occur inside a missing (yet-to-be-inserted)
// intermediate element, and bounding the nesting by the depth parameter so
// that PV-strong recursive DTDs terminate (Section 4.3.1, Figure 7).
//
// One deliberate soundness correction relative to the Figure 5 pseudocode
// (pinned by TestEngagedNodeCannotSelfMatch and TestNaiveUnsoundLine29): a
// simple node whose nested recognizer has already consumed input
// ("engaged") no longer matches its own element tag — those consumed
// symbols precede the tag in document order and could not be moved inside
// it. The node can still be ε-advanced past, closing the hypothesized
// element (Theorem 3 lets the unmatched remainder derive ε).
type Recognizer struct {
	schema  *Schema
	element string
	depth   int
	active  []*activeEntry
	any     bool // ANY content: accept everything (Section 4, Problem ECPV remark)
	// created counts recognizer objects rooted here (this one plus nested
	// ones, recursively) — the measure Figure 7 is about.
	created *int
	// ownCount backs created for root recognizers, avoiding a separate
	// counter allocation per element on the checking hot path.
	ownCount int
	// seen is an epoch-stamped per-DAG-node scratch replacing a per-Validate
	// map: seen[id] == epoch means node id was visited in the current sweep.
	// Indexed by dag.Node.ID, which is dense within one element's DAG.
	seen  []uint32
	epoch uint32
	// arena batch-allocates active entries; shared across the recognizer
	// tree rooted here.
	arena *entryArena
	// spareA/spareB are persistent scratch for Validate's prepended/next
	// sets; their backing arrays are kept disjoint from active's so one
	// sweep can read the old frontier while writing the new one.
	spareA, spareB []*activeEntry
}

// beginSeen starts a fresh visited generation without clearing the slice.
func (r *Recognizer) beginSeen() {
	r.epoch++
	if r.epoch == 0 {
		// Wrapped: clear stale stamps and restart. Clear through capacity —
		// init may later regrow the slice within cap, and pre-wrap stamps
		// beyond the current length would otherwise resurface.
		clear(r.seen[:cap(r.seen)])
		r.epoch = 1
	}
}

func (r *Recognizer) markSeen(id int)    { r.seen[id] = r.epoch }
func (r *Recognizer) isSeen(id int) bool { return r.seen[id] == r.epoch }

// activeEntry is one element of the active node set: a DAG node plus the
// lazily created nested recognizer of Figure 5 line 25.
type activeEntry struct {
	node    *dag.Node
	sub     *Recognizer
	engaged bool // sub has consumed at least one symbol
}

// entryArena batch-allocates activeEntry values for one recognizer tree
// (the root and its nested recognizers share one arena via newRecognizer).
// When a block fills, a fresh block is started and the full one is simply
// abandoned — handed-out pointers keep it alive, so entries never move.
type entryArena struct {
	buf []activeEntry
}

func (a *entryArena) new(node *dag.Node) *activeEntry {
	if len(a.buf) == cap(a.buf) {
		a.buf = make([]activeEntry, 0, max(16, 2*cap(a.buf)))
	}
	a.buf = append(a.buf, activeEntry{node: node})
	return &a.buf[len(a.buf)-1]
}

// reset recycles the current block. Only legal once nothing references the
// arena's entries any more (the recognizer's active set has been dropped).
func (a *entryArena) reset() { a.buf = a.buf[:0] }

// NewRecognizer builds a recognizer for the content of element elem, with
// the schema's effective depth bound.
func (s *Schema) NewRecognizer(elem string) *Recognizer {
	return s.newRecognizer(elem, s.depth, nil, nil)
}

// NewRecognizerDepth builds a recognizer with an explicit depth bound,
// exposed for the depth-sensitivity experiments (X3) and the Figure 7
// reproduction.
func (s *Schema) NewRecognizerDepth(elem string, depth int) *Recognizer {
	return s.newRecognizer(elem, depth, nil, nil)
}

// newRecognizer constructs one recognizer; a nil counter makes this a root
// (its creation count lives inline in ownCount and it owns a fresh arena).
func (s *Schema) newRecognizer(elem string, depth int, counter *int, arena *entryArena) *Recognizer {
	r := &Recognizer{schema: s, element: elem, depth: depth, created: counter, arena: arena}
	if counter == nil {
		r.created = &r.ownCount
	}
	if arena == nil {
		r.arena = &entryArena{}
	}
	*r.created++
	r.init()
	return r
}

// init (re)derives the element-dependent state: the active entry set, the
// ANY flag and the visited scratch. The arena, counter and depth are set by
// the caller.
func (r *Recognizer) init() {
	ed := r.schema.DAG.Element(r.element)
	if ed == nil {
		// Undeclared element: empty active set; any symbol rejects.
		return
	}
	if ed.Any {
		r.any = true
		return
	}
	if n := len(ed.Nodes()); n > 0 {
		if cap(r.seen) >= n {
			// Stale stamps are from older epochs and can never equal a
			// post-beginSeen epoch, so no clearing is needed.
			r.seen = r.seen[:n]
		} else {
			r.seen = make([]uint32, n)
		}
	}
	// Figure 5 line 8: append children(root) to activeNodesSet.
	for _, n := range ed.Entry {
		r.active = append(r.active, r.arena.new(n))
	}
}

// reinit readies a recycled recognizer for a fresh element — the
// StreamChecker's pooling hook. The previous element's entries must be
// unreachable (its active set popped) before the arena is recycled.
func (r *Recognizer) reinit(s *Schema, elem string, depth int) {
	r.schema = s
	r.element = elem
	r.depth = depth
	r.ownCount = 1
	r.created = &r.ownCount
	r.any = false
	r.active = r.active[:0]
	r.arena.reset()
	r.init()
}

// Element returns the element whose content this recognizer checks.
func (r *Recognizer) Element() string { return r.element }

// Depth returns the recognizer's remaining depth budget.
func (r *Recognizer) Depth() int { return r.depth }

// Created returns the total number of recognizer objects constructed for
// this check (this recognizer and all nested ones). Example 5 / Figure 7
// show this growing without bound if the depth is not bounded.
func (r *Recognizer) Created() int { return *r.created }

// Recognize feeds all symbols (Figure 5 lines 38-43) and reports
// acceptance.
func (r *Recognizer) Recognize(symbols []Symbol) bool {
	for _, x := range symbols {
		if !r.Validate(x) {
			return false
		}
	}
	return true
}

// Validate feeds one symbol (Figure 5 lines 10-37) and reports whether the
// content read so far remains potentially valid.
func (r *Recognizer) Validate(x Symbol) bool {
	if r.any {
		// ANY content admits any declared element and any character data.
		return x.Text || r.schema.LT.Has(x.Name)
	}
	result := false
	queue := r.active
	// seen guards the same-symbol ε-advance cascade: each DAG node is
	// visited at most once per Validate call *as a fresh position*. Engaged
	// entries are distinct configurations — symbols already consumed inside
	// a hypothesized element — and must not shadow the fresh position: a
	// sibling path may close its own hypothesis and reach this node with
	// nothing consumed (e.g. [b, σ, e, d] under the Figure 1 DTD, where
	// σ and e sit inside an inserted <f> and the real <d> then matches the
	// fresh d position).
	r.beginSeen()
	for _, e := range queue {
		if !e.engaged {
			r.markSeen(e.node.ID)
		}
	}
	next := r.spareB[:0]      // survivors, in order; exact-match children are prepended
	prepended := r.spareA[:0] // collected fronts, kept in match order

	epsilonAdvance := func(n *dag.Node) {
		for _, s := range n.Succ {
			if !r.isSeen(s.ID) {
				r.markSeen(s.ID)
				queue = append(queue, r.arena.new(s))
			}
		}
	}

	for i := 0; i < len(queue); i++ {
		e := queue[i]
		n := e.node
		if n.Type == dag.Group {
			// Figure 5 lines 13-21, justified by Proposition 2(2): a
			// star-group matches any symbol reachable from one of its
			// members; the node stays active (stars repeat).
			if r.groupMatches(n, x) {
				result = true
				next = append(next, e)
				continue
			}
			epsilonAdvance(n)
			continue
		}
		y := n.Element
		// Figure 5 lines 23-28: if x can occur strictly inside y, search
		// within a hypothesized (missing) y via a nested recognizer,
		// decrementing the depth budget (Section 4.3.1).
		if r.symbolReachableFrom(y, x) {
			if e.sub == nil {
				e.sub = r.schema.newRecognizer(y, r.depth-1, r.created, r.arena)
			}
			if e.sub.depth > 0 && e.sub.Validate(x) {
				e.engaged = true
				result = true
				next = append(next, e)
				continue
			}
		}
		// Figure 5 lines 29-33, with the engagement correction: the element
		// tag itself matches and the frontier advances for the *next*
		// symbol (children are prepended, not reprocessed for x).
		if !x.Text && x.Name == y && !e.engaged {
			result = true
			for _, s := range n.Succ {
				prepended = append(prepended, r.arena.new(s))
			}
			continue
		}
		// Figure 5 lines 34-35: ε-advance — the node derives ε (Theorem 3)
		// and its successors are searched for the same symbol.
		epsilonAdvance(n)
	}

	if result {
		old := r.active
		r.active = r.dedupEntries(append(prepended, next...))
		// Rotate buffers: the old frontier's array becomes scratch for the
		// next sweep, and the arrays stay pairwise disjoint.
		r.spareA = old[:0]
		r.spareB = next[:0]
	}
	// On reject the active set is left unchanged; recognize() stops anyway,
	// and nested speculative recognizers are discarded by their parent.
	return result
}

// dedupEntries drops duplicate non-engaged entries for the same DAG node,
// which can arise when one predecessor exact-matches (prepending a child)
// while another ε-advances to the same node. It opens a fresh seen
// generation, so it must not run concurrently with a sweep.
func (r *Recognizer) dedupEntries(entries []*activeEntry) []*activeEntry {
	if len(entries) < 2 {
		return entries
	}
	r.beginSeen()
	out := entries[:0]
	for _, e := range entries {
		if !e.engaged {
			if r.isSeen(e.node.ID) {
				continue
			}
			r.markSeen(e.node.ID)
		}
		out = append(out, e)
	}
	return out
}

func (r *Recognizer) groupMatches(n *dag.Node, x Symbol) bool {
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

// symbolReachableFrom reports whether x may occur strictly inside element y
// (the LT lookup of Figure 5 line 23). Strictness matters: "b is not found
// in the lookup table of b" (Example 4) unless b is recursive.
func (r *Recognizer) symbolReachableFrom(y string, x Symbol) bool {
	if x.Text {
		return r.schema.LT.ReachesPCDATA(y)
	}
	return r.schema.LT.Reachable(y, x.Name)
}

// ActiveLabels renders the current active node set for tracing (the solid
// nodes of Figure 6), sorted for stability. Engaged nodes are marked with
// "+rec" and show their nested recognizer's active labels in brackets.
func (r *Recognizer) ActiveLabels() []string {
	if r.any {
		return []string{"ANY"}
	}
	out := make([]string, 0, len(r.active))
	for _, e := range r.active {
		label := e.node.Label()
		if e.node.Type == dag.Group {
			label = "[" + label + "]"
		}
		if e.engaged {
			label += "+rec(" + strings.Join(e.sub.ActiveLabels(), "; ") + ")"
		}
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// TraceString renders the active set on one line for test assertions.
func (r *Recognizer) TraceString() string {
	return fmt.Sprintf("{%s}", strings.Join(r.ActiveLabels(), " "))
}
