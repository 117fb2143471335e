// Package complete synthesizes valid extensions: given a potentially valid
// document, it constructs a concrete valid document by inserting tag pairs
// — the constructive counterpart of Definition 3 and of the paper's
// Figure 3 (where two <d> insertions complete Example 1's s).
//
// Per element node the problem is local (as with checking): embed the
// existing child sequence into the node's content model, allowing each
// model position that carries an element symbol to be satisfied either by
// a real child with that name or by a *inserted* element wrapping a
// consecutive run of the remaining children (possibly empty). The search is
// a memoized dynamic program over (Glushkov position, input index), with
// inserted-wrapper feasibility decided recursively under the same depth
// bound the checker uses.
//
// The hot path never hashes a string: element names are interned to int32
// ids once per Completer, each (sub-)DP memoizes into one dense table, and
// host verdicts and the cycle guard use integer keys.
package complete

import (
	"fmt"

	"repro/internal/contentmodel"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
)

// Completer synthesizes valid extensions w.r.t. a compiled schema. It
// memoizes per-schema state and reuses scratch across calls, so one
// Completer must not be used by two goroutines at once.
type Completer struct {
	schema *core.Schema
	// ids interns every element name the DTD declares or a content model
	// mentions; id 0 stands for character data (a text item, or a #PCDATA
	// position).
	ids     map[string]int32
	elems   []elemInfo           // indexed by id; elems[0] is unused
	minimal map[string]*dom.Node // memoized minimal valid instances

	// Scratch for one arrange call and all its sub-DPs. arrange clears
	// items before it returns, so an idle Completer holds no document.
	items []*dom.Node      // the arrangement's items
	syms  []int32          // their symbol ids
	hosts map[hostKey]bool // canHost verdicts
	stack []stackKey       // canHost questions being decided
	arena []dpVal          // backing store for the DP memo tables
	top   int              // arena entries in use
}

// elemInfo is one interned element: its declaration and, for Children and
// Mixed content, the Glushkov automaton on the ORIGINAL content model
// (with ? and +) — the completion must satisfy real validity, not the
// normalized relaxation — flattened into id-based tables.
type elemInfo struct {
	name string
	decl *dtd.ElementDecl // nil for a name no declaration covers
	// sym[q] is the symbol id at position q (q ≥ 1).
	sym []int32
	// succ[p] lists the positions that may follow p, sorted (succ[0] is
	// the first set); the lists are the automaton's own, read only.
	succ [][]int
	// end[p] reports whether the model may stop after p (end[0]: the model
	// is nullable).
	end []bool
}

// New builds a Completer for the schema.
func New(schema *core.Schema) *Completer {
	c := &Completer{
		schema:  schema,
		ids:     map[string]int32{},
		elems:   []elemInfo{{}},
		minimal: map[string]*dom.Node{},
	}
	for _, name := range schema.DTD.Order {
		c.intern(name)
	}
	for id := 1; id < len(c.elems); id++ {
		decl := c.elems[id].decl
		if decl == nil || (decl.Category != dtd.Children && decl.Category != dtd.Mixed) {
			continue
		}
		auto := contentmodel.CompileAutomaton(decl.Model)
		n := auto.Positions()
		sym := make([]int32, n+1)
		succ := make([][]int, n+1)
		end := make([]bool, n+1)
		succ[0], end[0] = auto.First(), auto.Nullable()
		for q := 1; q <= n; q++ {
			if name := auto.Symbol(q); name != contentmodel.PCDATASymbol {
				sym[q] = c.intern(name)
			}
			succ[q], end[q] = auto.Follow(q), auto.Last(q)
		}
		el := &c.elems[id]
		el.sym, el.succ, el.end = sym, succ, end
	}
	return c
}

// intern returns name's id, assigning the next one on first sight.
func (c *Completer) intern(name string) int32 {
	if id, ok := c.ids[name]; ok {
		return id
	}
	id := int32(len(c.elems))
	c.ids[name] = id
	c.elems = append(c.elems, elemInfo{name: name, decl: c.schema.DTD.Elements[name]})
	return id
}

// insLog accumulates the element nodes a completion inserts, in creation
// order. The inserted count is always len(nodes).
type insLog struct {
	nodes []*dom.Node
}

// addTree records every element of an inserted subtree.
func (l *insLog) addTree(n *dom.Node) {
	n.Walk(func(x *dom.Node) bool {
		if x.Kind == dom.ElementNode {
			l.nodes = append(l.nodes, x)
		}
		return true
	})
}

// Complete returns a valid extension of root (a fresh tree; the input is
// not modified) together with the number of elements inserted. It fails if
// the document is not potentially valid within the schema's depth bound;
// that failure satisfies core.IsViolation, distinguishing it from internal
// errors.
func (c *Completer) Complete(root *dom.Node) (*dom.Node, int, error) {
	out, nodes, err := c.CompleteTracked(root)
	if err != nil {
		return nil, 0, err
	}
	return out, len(nodes), nil
}

// CompleteTracked is Complete returning the inserted element nodes
// themselves (nodes of the returned tree, in creation order) instead of
// just their count — the input for diff computation (internal/diff).
func (c *Completer) CompleteTracked(root *dom.Node) (*dom.Node, []*dom.Node, error) {
	if v := c.schema.CheckDocument(root); v != nil {
		return nil, nil, &core.ViolationError{Reason: fmt.Sprintf("complete: document is not potentially valid: %v", v)}
	}
	out := root.Clone()
	log := &insLog{}
	if err := c.completeNode(out, c.schema.EffectiveDepth(), log); err != nil {
		return nil, nil, err
	}
	return out, log.nodes, nil
}

// completeNode rewrites n's children into a valid configuration (recursing
// into original children first), inserting wrapper elements as needed.
func (c *Completer) completeNode(n *dom.Node, depth int, log *insLog) error {
	if n.Kind != dom.ElementNode {
		return nil
	}
	// Complete original element children first: their subtrees are
	// independent subproblems.
	for _, child := range n.Children {
		if child.Kind == dom.ElementNode {
			if err := c.completeNode(child, depth, log); err != nil {
				return err
			}
		}
	}
	id, ok := c.ids[n.Name]
	if !ok || c.elems[id].decl == nil {
		return fmt.Errorf("complete: element <%s> not declared", n.Name)
	}
	el := &c.elems[id]
	switch el.decl.Category {
	case dtd.Empty:
		if len(realChildren(n)) > 0 {
			return fmt.Errorf("complete: EMPTY <%s> has content", n.Name)
		}
		return nil
	case dtd.Any:
		// ANY content admits any declared elements and character data;
		// the checker already verified declarations. Nothing to insert.
		return nil
	}
	// Children and Mixed content both go through the embedding DP: mixed
	// content may hold child elements outside its allowed set only by
	// wrapping them into allowed hosts (e.g. an <item> inside <para>
	// becomes <list><item/></list>).
	newChildren, err := c.arrange(el, n.Children, depth, log)
	if err != nil {
		return fmt.Errorf("complete: inside <%s>: %w", n.Name, err)
	}
	for _, ch := range newChildren {
		ch.Parent = n
	}
	n.Children = newChildren
	return nil
}

// realChildren filters to element/text children (comments and PIs carry no
// validity weight but are preserved by arrange).
func realChildren(n *dom.Node) []*dom.Node {
	var out []*dom.Node
	for _, ch := range n.Children {
		if ch.Kind == dom.ElementNode || ch.Kind == dom.TextNode {
			out = append(out, ch)
		}
	}
	return out
}

// arrange embeds the child list into el's content model, returning the
// new child list (with wrappers inserted). Whitespace-only text in element
// content is permitted by XML and kept in place next to its neighbor.
func (c *Completer) arrange(el *elemInfo, children []*dom.Node, depth int, log *insLog) ([]*dom.Node, error) {
	// Split children into the "significant" items the model must account
	// for, and a map of trailing decorations (comments/PIs/whitespace)
	// re-attached after arrangement. In mixed content all text is
	// significant (it matches PCDATA positions).
	items, decorations := splitItems(c.items[:0], children, el.decl.Category == dtd.Mixed)
	c.items = items
	// Map the items to symbol ids once: text is 0, an element its id, and
	// an element no declaration or model names -1 (it matches nothing).
	c.syms = c.syms[:0]
	for _, it := range items {
		id := int32(0)
		if it.Kind == dom.ElementNode {
			if known, ok := c.ids[it.Name]; ok {
				id = known
			} else {
				id = -1
			}
		}
		c.syms = append(c.syms, id)
	}
	c.resetScratch()
	d := c.newDP(el, items, c.syms, depth, 0)
	plan, ok := d.solveStart()
	var out []*dom.Node
	if ok {
		// Re-attach decorations: items keep their original relative order;
		// decorations that followed item i are appended after i's final
		// position. Leading decorations go first.
		out = weave(d.render(plan, log), items, decorations)
	}
	clear(items)
	if !ok {
		return nil, fmt.Errorf("no embedding of %d children into model of <%s>", len(items), el.name)
	}
	return out, nil
}

// splitItems separates model-relevant children (elements; non-whitespace
// text is impossible here — the PV checker would have rejected it unless
// the model reaches PCDATA, which Children content cannot), appended to
// items, from decorations keyed by the index of the item they follow
// (-1 = leading). The map stays nil when there are no decorations.
func splitItems(items, children []*dom.Node, mixed bool) ([]*dom.Node, map[int][]*dom.Node) {
	var decorations map[int][]*dom.Node
	for _, ch := range children {
		switch {
		case ch.Kind == dom.ElementNode:
			items = append(items, ch)
		case ch.Kind == dom.TextNode && (mixed || !isWhitespace(ch.Data)):
			// Text is significant: it matches a PCDATA position in mixed
			// content, or must hide inside an inserted element in element
			// content.
			items = append(items, ch)
		default:
			// Comments, PIs and whitespace in element content (XML allows
			// it anywhere there) are decoration.
			if decorations == nil {
				decorations = map[int][]*dom.Node{}
			}
			decorations[len(items)-1] = append(decorations[len(items)-1], ch)
		}
	}
	return items, decorations
}

func isWhitespace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// dp is the per-node dynamic program.
type dp struct {
	c     *Completer
	el    *elemInfo
	items []*dom.Node
	syms  []int32 // symbol ids of items
	// memo holds one entry per state (p, i) at index p*(len(items)+1)+i.
	memo  []dpVal
	depth int
	// off is the absolute offset of items[0] within the top-level
	// arrangement's item list; host memoization is keyed on absolute
	// ranges so equivalent sub-problems are shared across the recursion.
	off int
}

// hostKey identifies one canHost verdict: the element, the absolute item
// range and the depth budget. The depth is part of the key because a range
// hostable with a deep budget may be infeasible with a shallow one.
type hostKey struct {
	i, j, depth int
	elem        int32
}

// stackKey identifies a canHost question on the cycle-guard stack.
type stackKey struct {
	i, j int
	elem int32
}

// The kinds of a DP state. The zero value marks a state not yet visited;
// every kind from accept on is a success.
const (
	unset      uint8 = iota
	inProgress       // being computed: reaching it again counts as failure
	fail
	accept  // end of the model
	consume // item i matched at position q
	skip    // empty character data at PCDATA position q
	host    // inserted element of position q wraps items [i, j)
)

// dpVal records the decision at (p, i) for plan reconstruction.
type dpVal struct {
	kind uint8
	q    int32 // next position
	j    int   // end of the hosted range (kind == host)
}

func (v dpVal) ok() bool { return v.kind >= accept }

// The largest memo arena (in entries, 16 bytes each) and host memo (in
// verdicts) a Completer keeps for the next arrangement. On the
// BenchmarkCompleteCorpus mix no arrangement needs more than 463 entries
// or 2,479 verdicts.
const (
	maxRetainedMemo  = 1 << 16
	maxRetainedHosts = 1 << 14
)

// resetScratch readies the scratch for a new arrangement. An arena or host
// memo an unusually large arrangement grew past its bound is dropped
// rather than kept in a pooled Completer: the arena would pin its memory,
// and clearing a map costs its whole capacity, which never shrinks.
func (c *Completer) resetScratch() {
	if len(c.arena) > maxRetainedMemo {
		c.arena = nil
	}
	c.top = 0
	c.stack = c.stack[:0]
	if c.hosts == nil || len(c.hosts) > maxRetainedHosts {
		c.hosts = map[hostKey]bool{}
	} else {
		clear(c.hosts)
	}
}

// newDP starts a (sub-)DP over items, taking its memo table from the
// completer's arena. Tables are released in reverse order of creation —
// sub-DPs nest strictly — so the arena works as a stack; when it must
// grow, tables already handed out keep the old backing array.
func (c *Completer) newDP(el *elemInfo, items []*dom.Node, syms []int32, depth, off int) *dp {
	size := len(el.succ) * (len(items) + 1)
	if c.top+size > len(c.arena) {
		c.arena = make([]dpVal, max(2*len(c.arena), c.top+size))
	}
	memo := c.arena[c.top : c.top+size : c.top+size]
	clear(memo)
	c.top += size
	return &dp{c: c, el: el, items: items, syms: syms, memo: memo, depth: depth, off: off}
}

// release returns d's memo table to the arena.
func (c *Completer) release(d *dp) { c.top -= len(d.memo) }

// solveStart runs the DP from the virtual start position.
func (d *dp) solveStart() (dpVal, bool) {
	v := d.solve(0, 0)
	return v, v.ok()
}

// solve decides whether input items[i:] can be embedded starting after
// position p (0 is the virtual start).
func (d *dp) solve(p, i int) dpVal {
	k := p*(len(d.items)+1) + i
	if v := d.memo[k]; v.kind != unset {
		return v
	}
	// Mark in-progress to break zero-consumption cycles conservatively.
	d.memo[k].kind = inProgress
	v := d.compute(p, i)
	d.memo[k] = v
	return v
}

func (d *dp) compute(p, i int) dpVal {
	if i == len(d.items) && d.el.end[p] {
		return dpVal{kind: accept}
	}
	succ := d.el.succ[p]
	// Pass 1 — consume: the next real item matches a successor position
	// directly (an element at its own symbol, text at a PCDATA position).
	// Preferring consumption keeps completions minimal: real markup lands
	// at its natural slot before any wrapper is considered.
	if i < len(d.items) {
		for _, q := range succ {
			if d.syms[i] == d.el.sym[q] {
				if d.solve(q, i+1).ok() {
					return dpVal{kind: consume, q: int32(q)}
				}
			}
		}
	}
	// Pass 2 — pass through an empty PCDATA slot (character data may be
	// the empty string; PCDATA → ε in the paper's grammar).
	for _, q := range succ {
		if d.el.sym[q] == 0 {
			if d.solve(q, i).ok() {
				return dpVal{kind: skip, q: int32(q)}
			}
		}
	}
	// Pass 3 — host: insert a fresh element at an element position,
	// wrapping items [i, j). Longest ranges first (Figure 3's style: one
	// <d> absorbs both the text and the <e>).
	for _, q := range succ {
		sym := d.el.sym[q]
		if sym == 0 {
			continue
		}
		for j := len(d.items); j >= i; j-- {
			if !d.canHost(sym, i, j) {
				continue
			}
			if d.solve(q, j).ok() {
				return dpVal{kind: host, q: int32(q), j: j}
			}
		}
	}
	return dpVal{kind: fail}
}

// canHost reports whether a fresh element with id sym can contain items
// [i, j) as its (completed) content.
func (d *dp) canHost(sym int32, i, j int) bool {
	if j == i {
		// Empty host: any productive element (compilation guarantees all
		// are) can be synthesized minimally.
		return true
	}
	if d.depth <= 0 {
		return false
	}
	c := d.c
	memoKey := hostKey{i: d.off + i, j: d.off + j, depth: d.depth - 1, elem: sym}
	if v, ok := c.hosts[memoKey]; ok {
		return v
	}
	key := stackKey{i: d.off + i, j: d.off + j, elem: sym}
	for _, k := range c.stack {
		if k == key {
			return false // cycle with no progress; not cached (stack-relative)
		}
	}
	el := &c.elems[sym]
	if el.decl == nil {
		return false
	}
	switch el.decl.Category {
	case dtd.Empty:
		c.hosts[memoKey] = false
		return false
	case dtd.Any:
		// ANY hosts any declared elements and text.
		ok := true
		for _, id := range d.syms[i:j] {
			if id < 0 || (id > 0 && c.elems[id].decl == nil) {
				ok = false
				break
			}
		}
		c.hosts[memoKey] = ok
		return ok
	}
	// Children and Mixed content: recurse with a sub-DP (mixed content may
	// need further wrappers for elements outside its allowed set).
	c.stack = append(c.stack, key)
	sub := c.newDP(el, d.items[i:j], d.syms[i:j], d.depth-1, d.off+i)
	_, ok := sub.solveStart()
	c.release(sub)
	c.stack = c.stack[:len(c.stack)-1]
	c.hosts[memoKey] = ok
	return ok
}

// render reconstructs the completed child list from the DP decisions.
func (d *dp) render(start dpVal, log *insLog) []*dom.Node {
	out := make([]*dom.Node, 0, len(d.items))
	p, i := 0, 0
	v := start
	for {
		switch v.kind {
		case accept:
			return out
		case skip:
			p = int(v.q)
		case consume:
			out = append(out, d.items[i])
			i++
			p = int(v.q)
		case host:
			h := d.buildHost(d.el.sym[v.q], i, v.j, log)
			out = append(out, h)
			i = v.j
			p = int(v.q)
		default:
			panic("complete: render on failed plan")
		}
		v = d.memo[p*(len(d.items)+1)+i]
		if v.kind == unset {
			panic("complete: broken plan chain")
		}
	}
}

// buildHost constructs the inserted element with id sym wrapping items
// [i, j), completing its interior recursively.
func (d *dp) buildHost(sym int32, i, j int, log *insLog) *dom.Node {
	el := &d.c.elems[sym]
	if j == i {
		h := d.c.synthesizeMinimal(el.name)
		log.addTree(h)
		return h
	}
	h := dom.NewElement(el.name)
	log.nodes = append(log.nodes, h)
	if el.decl.Category == dtd.Any {
		// ANY: the items go in as-is.
		for _, it := range d.items[i:j] {
			h.Append(it)
		}
		return h
	}
	sub := d.c.newDP(el, d.items[i:j], d.syms[i:j], d.depth-1, d.off+i)
	defer d.c.release(sub)
	plan, ok := sub.solveStart()
	if !ok {
		panic("complete: host became infeasible during render")
	}
	h.Children = sub.render(plan, log)
	for _, ch := range h.Children {
		ch.Parent = h
	}
	return h
}

// synthesizeMinimal builds a minimal valid instance of elem (memoized,
// deterministic): EMPTY/Mixed/ANY are empty; Children content picks
// minimal-height alternatives, zero repetitions, and empty optionals. The
// caller records the returned subtree's elements in its insLog.
func (c *Completer) synthesizeMinimal(elem string) *dom.Node {
	if cached, ok := c.minimal[elem]; ok {
		return cached.Clone()
	}
	n := dom.NewElement(elem)
	decl := c.schema.DTD.Elements[elem]
	if decl != nil && decl.Category == dtd.Children {
		for _, child := range c.minimalSeq(decl.Model) {
			n.Append(child)
		}
	}
	c.minimal[elem] = n.Clone()
	return n
}

// minimalSeq returns a minimal child sequence satisfying e.
func (c *Completer) minimalSeq(e *contentmodel.Expr) []*dom.Node {
	switch e.Kind {
	case contentmodel.KindPCDATA:
		return nil // empty text
	case contentmodel.KindName:
		return []*dom.Node{c.synthesizeMinimal(e.Name)}
	case contentmodel.KindSeq:
		var out []*dom.Node
		for _, ch := range e.Children {
			out = append(out, c.minimalSeq(ch)...)
		}
		return out
	case contentmodel.KindChoice:
		// Pick the alternative with the fewest mandatory elements; the
		// productivity guarantee from compilation means some alternative
		// terminates.
		best := e.Children[0]
		bestCost := c.minCost(best, map[string]bool{})
		for _, ch := range e.Children[1:] {
			if cost := c.minCost(ch, map[string]bool{}); cost < bestCost {
				best, bestCost = ch, cost
			}
		}
		return c.minimalSeq(best)
	case contentmodel.KindStar, contentmodel.KindOpt:
		return nil
	case contentmodel.KindPlus:
		return c.minimalSeq(e.Children[0])
	}
	return nil
}

// minCost estimates the number of elements a minimal satisfaction of e
// needs; `busy` breaks recursive cycles (cycled elements cost a lot, so
// productive alternatives win).
func (c *Completer) minCost(e *contentmodel.Expr, busy map[string]bool) int {
	const expensive = 1 << 20
	switch e.Kind {
	case contentmodel.KindPCDATA:
		return 0
	case contentmodel.KindName:
		if busy[e.Name] {
			return expensive
		}
		decl := c.schema.DTD.Elements[e.Name]
		if decl == nil {
			return expensive
		}
		if decl.Category != dtd.Children {
			return 1
		}
		busy[e.Name] = true
		cost := 1 + c.minCost(decl.Model, busy)
		delete(busy, e.Name)
		return cost
	case contentmodel.KindSeq:
		total := 0
		for _, ch := range e.Children {
			total += c.minCost(ch, busy)
			if total >= expensive {
				return expensive
			}
		}
		return total
	case contentmodel.KindChoice:
		best := expensive
		for _, ch := range e.Children {
			if cost := c.minCost(ch, busy); cost < best {
				best = cost
			}
		}
		return best
	case contentmodel.KindStar, contentmodel.KindOpt:
		return 0
	case contentmodel.KindPlus:
		return c.minCost(e.Children[0], busy)
	}
	return expensive
}

// weave re-attaches decorations (comments, PIs, whitespace) around the
// arranged items: a decoration that followed original item k is placed
// immediately after item k's new position (possibly inside a wrapper —
// decorations follow their item). Leading decorations go first.
func weave(arranged []*dom.Node, items []*dom.Node, decorations map[int][]*dom.Node) []*dom.Node {
	if len(decorations) == 0 {
		return arranged
	}
	// Locate each item's hosting top-level child.
	after := map[*dom.Node]int{} // item -> index of original item order
	for k, it := range items {
		after[it] = k
	}
	var out []*dom.Node
	out = append(out, decorations[-1]...)
	for _, ch := range arranged {
		out = append(out, ch)
		// The decorations for every item contained in ch (it may be a
		// wrapper) are appended inside/after: simplest faithful placement
		// is after the top-level child containing the item.
		maxItem := -1
		ch.Walk(func(x *dom.Node) bool {
			if k, ok := after[x]; ok && k > maxItem {
				maxItem = k
			}
			return true
		})
		if k, ok := after[ch]; ok && k > maxItem {
			maxItem = k
		}
		if maxItem >= 0 {
			out = append(out, decorations[maxItem]...)
		}
	}
	return out
}
