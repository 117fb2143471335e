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
// a memoized dynamic program over (Glushkov position, input index). Which
// runs an inserted element can wrap comes from one table per arrangement:
// H(e, i, d), the furthest item an inserted e can wrap from item i within
// depth budget d (the checker's bound), computed once per (element, start,
// depth) by a forward sweep over e's model. The hostable ranges from i are
// exactly [i, H], so the DP asks one question per element successor and
// its cost is bounded: see the cost tests.
//
// Completion runs on two paths that share the DP. CompleteBytes, the one
// the server takes, completes over the input bytes without a tree: one
// token pass, the DP on an item table and an insertion script spliced
// into the input (bytes.go). Complete, CompleteTracked and
// CompleteInPlace complete a dom tree; they are the library's tree API
// and the byte path's test oracle.
//
// The DP never hashes a string: element names are interned to int32 ids
// once per Completer, and the DP memos and the H table are dense. The
// byte path resolves names through the schema's name table
// (core.Schema.SymbolID) and a dense core-id → completer-id slice.
package complete

import (
	"fmt"
	"math/bits"

	"repro/internal/contentmodel"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
)

// Completer synthesizes valid extensions w.r.t. a compiled schema. It
// memoizes per-schema state and reuses scratch across calls, so one
// Completer must not be used by two goroutines at once.
type Completer struct {
	schema  *core.Schema
	checker *core.StreamChecker // gates each completion (CompleteInPlace)
	// ids interns every element name the DTD declares or a content model
	// mentions; id 0 stands for character data (a text item, or a #PCDATA
	// position).
	ids     map[string]int32
	elems   []elemInfo           // indexed by id; elems[0] is unused
	minimal map[string]*dom.Node // memoized minimal valid instances
	// depth is the schema's depth bound and deep the larger budget a node
	// falls back on when the bound finds no embedding (see arrange).
	depth, deep int
	// levels holds one sweep's scratch per depth budget: a sweep at budget
	// d only starts sweeps at d-1, so no two live sweeps share a level.
	levels           []sweepScratch
	maxWords, maxPos int // the largest model's bitset words and positions

	// Scratch for one arrangement and all its sub-DPs. syms holds the
	// arrangement's symbol ids: symBuf on the tree path, where items holds
	// the item nodes (arrange clears it before it returns, so an idle
	// Completer holds no document), and a slice of the item table on the
	// byte path.
	items  []*dom.Node
	symBuf []int32
	syms   []int32
	arena  []dpVal // backing store for the DP memo tables
	top    int     // arena entries in use
	// The H table: rows[d*len(elems)+e] locates H(e, ·, d) in ends. A row
	// belongs to the current arrangement only when its gen is gen.
	rows    []endRow
	ends    []int32
	endsTop int // ends entries in use
	gen     uint32

	// work counts DP states computed plus sweep steps. Only tests read it.
	work int

	bytePath // CompleteBytes' state (bytes.go)
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
	// The sweep's bitsets over positions 0..len(sym)-1, words uint64s
	// each: reach[p*words:] holds the positions reachable from p in one or
	// more follow steps, and endSet the positions end marks.
	words  int
	reach  []uint64
	endSet []uint64
}

// endRow locates one row H(e, ·, d) of the H table.
type endRow struct {
	gen uint32
	off int32 // index of H(e, 0, d) in Completer.ends
	// sat is the smallest start known to give H = len(items), or
	// len(items)+1: H is non-decreasing in the start, so every start from
	// sat on gives len(items) too.
	sat int32
}

// sweepScratch is one sweep's working sets (see sweep).
type sweepScratch struct {
	cur, next, reach, open []uint64
	until                  []int32
}

// New builds a Completer for the schema.
func New(schema *core.Schema) *Completer {
	c := &Completer{
		schema:  schema,
		checker: schema.NewStreamChecker(),
		ids:     map[string]int32{},
		elems:   []elemInfo{{}},
		minimal: map[string]*dom.Node{},
		depth:   schema.EffectiveDepth(),
	}
	for _, name := range schema.DTD.Order {
		c.intern(name)
	}
	c.maxWords, c.maxPos = 1, 1
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
		el.words = n/64 + 1
		el.reach = reachSets(succ, el.words)
		el.endSet = make([]uint64, el.words)
		for p, ok := range end {
			if ok {
				el.endSet[p/64] |= 1 << (p % 64)
			}
		}
		c.maxWords, c.maxPos = max(c.maxWords, el.words), max(c.maxPos, n+1)
	}
	c.deep = c.depth - 1 + len(c.elems) - 1
	c.reserve(c.depth)
	c.initBytePath()
	return c
}

// reserve readies the H table's rows and the sweep scratch for the depth
// budgets below depth.
func (c *Completer) reserve(depth int) {
	if need := depth * len(c.elems); len(c.rows) < need {
		c.rows = append(c.rows, make([]endRow, need-len(c.rows))...)
	}
	for len(c.levels) < depth {
		w, n := c.maxWords, c.maxPos
		words := make([]uint64, 4*w)
		c.levels = append(c.levels, sweepScratch{
			cur:   words[:w:w],
			next:  words[w : 2*w : 2*w],
			reach: words[2*w : 3*w : 3*w],
			open:  words[3*w:],
			until: make([]int32, n),
		})
	}
}

// reachSets returns, for each position p of a model with successor lists
// succ, the bitset of positions reachable from p in one or more follow
// steps, words uint64s per position.
func reachSets(succ [][]int, words int) []uint64 {
	reach := make([]uint64, len(succ)*words)
	for p, qs := range succ {
		for _, q := range qs {
			reach[p*words+q/64] |= 1 << (q % 64)
		}
	}
	// Close under composition: whatever q reaches, every p before it does.
	for changed := true; changed; {
		changed = false
		for p := len(succ) - 1; p >= 0; p-- {
			row := reach[p*words : (p+1)*words]
			for _, q := range succ[p] {
				for w, v := range reach[q*words : (q+1)*words] {
					if row[w]|v != row[w] {
						row[w] |= v
						changed = true
					}
				}
			}
		}
	}
	return reach
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
	out := root.Clone()
	nodes, _, err := c.CompleteInPlace(out)
	if err != nil {
		return nil, nil, err
	}
	return out, nodes, nil
}

// CompleteInPlace is CompleteTracked for a caller that owns root and keeps
// only the result: root itself becomes the valid extension, with no
// clone. It returns the inserted element nodes in creation order and
// whether root was already valid (ValidTree included), in which case the
// DP does not run; zero insertions alone do not say that (AllowAnyRoot
// admits a non-schema root). On an error root may be partly rewritten and
// should be dropped.
func (c *Completer) CompleteInPlace(root *dom.Node) ([]*dom.Node, bool, error) {
	if err := c.checker.RunTree(root); err != nil {
		if !core.IsViolation(err) {
			return nil, false, err
		}
		if c.checker.ValidTree(root) {
			return nil, true, nil
		}
		return nil, false, &core.ViolationError{Reason: "complete: document is not potentially valid: " + err.Error()}
	}
	if c.checker.StrictlyValid() {
		return nil, true, nil
	}
	log := &insLog{}
	if err := c.completeNode(root, c.depth, log); err != nil {
		return nil, false, err
	}
	return log.nodes, false, nil
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
	c.symBuf = c.symBuf[:0]
	for _, it := range items {
		id := int32(0)
		if it.Kind == dom.ElementNode {
			if known, ok := c.ids[it.Name]; ok {
				id = known
			} else {
				id = -1
			}
		}
		c.symBuf = append(c.symBuf, id)
	}
	c.syms = c.symBuf
	d, plan, ok := c.solveArrangement(el, depth)
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

// solveArrangement runs the DP for the arrangement of c.syms into el's
// model within depth budget depth. The checker lets a star group take any
// symbol reachable from one of its members without spending depth
// (Proposition 2(2)). So a node it accepts may need wrappers nested deeper
// than the bound: below the bound's depth-1 hypothesized levels, a chain
// of at most one wrapper per element type. Nodes that fit the bound keep
// their plans; the others are arranged again with that budget.
func (c *Completer) solveArrangement(el *elemInfo, depth int) (dp, dpVal, bool) {
	c.resetScratch()
	d := c.newDP(el, c.syms, depth, 0)
	plan, ok := d.solveStart()
	if !ok && c.deep > depth {
		c.reserve(c.deep)
		c.resetScratch()
		d = c.newDP(el, c.syms, c.deep, 0)
		plan, ok = d.solveStart()
	}
	return d, plan, ok
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

// dp is the per-node dynamic program over a run of the arrangement's
// items, given by their symbol ids.
type dp struct {
	c    *Completer
	el   *elemInfo
	syms []int32
	// memo holds one entry per state (p, i) at index p*(len(syms)+1)+i.
	memo  []dpVal
	depth int
	// off is the absolute offset of syms[0] within the top-level
	// arrangement's item list, the H table's coordinates.
	off int
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

// The largest memo arena (in entries, 16 bytes each) and H table (in
// entries, 4 bytes each) a Completer keeps for the next arrangement. On
// the BenchmarkCompleteCorpus mix no arrangement needs more than 270 arena
// entries or 408 table entries.
const (
	maxRetainedMemo = 1 << 16
	maxRetainedEnds = 1 << 16
)

// resetScratch readies the scratch for a new arrangement. An arena or H
// table an unusually large arrangement grew past its bound is dropped
// rather than kept in a pooled Completer, where it would pin its memory.
// Bumping gen retires every row of the H table at once.
func (c *Completer) resetScratch() {
	if len(c.arena) > maxRetainedMemo {
		c.arena = nil
	}
	c.top = 0
	if len(c.ends) > maxRetainedEnds {
		c.ends = nil
	}
	c.endsTop = 0
	c.gen++
	if c.gen == 0 { // wrapped around: no old row may look current
		clear(c.rows)
		c.gen = 1
	}
}

// newDP starts a (sub-)DP over the items with symbol ids syms, taking its
// memo table from the completer's arena. Tables are released in reverse
// order of creation — sub-DPs nest strictly — so the arena works as a
// stack; when it must grow, tables already handed out keep the old
// backing array. A dp is a value, so that it stays on the stack.
func (c *Completer) newDP(el *elemInfo, syms []int32, depth, off int) dp {
	size := len(el.succ) * (len(syms) + 1)
	if c.top+size > len(c.arena) {
		c.arena = make([]dpVal, max(2*len(c.arena), c.top+size))
	}
	memo := c.arena[c.top : c.top+size : c.top+size]
	clear(memo)
	c.top += size
	return dp{c: c, el: el, syms: syms, memo: memo, depth: depth, off: off}
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
	k := p*(len(d.syms)+1) + i
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
	d.c.work++
	if i == len(d.syms) && d.el.end[p] {
		return dpVal{kind: accept}
	}
	succ := d.el.succ[p]
	// Pass 1 — consume: the next real item matches a successor position
	// directly (an element at its own symbol, text at a PCDATA position).
	// Preferring consumption keeps completions minimal: real markup lands
	// at its natural slot before any wrapper is considered.
	if i < len(d.syms) {
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
	// wrapping the longest hostable range [i, j) (Figure 3's style: one <d>
	// absorbs both the text and the <e>). The hostable ends are exactly
	// i..H, and solve(q, ·) only gains by starting later (dropping the first
	// item keeps a suffix embeddable), so if hosting up to H fails, every
	// shorter range fails too.
	for _, q := range succ {
		sym := d.el.sym[q]
		if sym == 0 {
			continue
		}
		j := i
		if d.depth > 0 {
			j = min(d.c.hostEnd(sym, d.off+i, d.depth-1)-d.off, len(d.syms))
		}
		if d.solve(q, j).ok() {
			return dpVal{kind: host, q: int32(q), j: j}
		}
	}
	return dpVal{kind: fail}
}

// hostEnd returns H(e, i, d), the largest k such that a fresh element with
// id e can contain items [i, k) of the arrangement as its completed
// content, with depth budget d for its own insertions. H(e, i, d) ≥ i: an
// empty insertion always works. The hostable ends from i are exactly
// i..H(e, i, d), since dropping the last wrapped item keeps a range
// hostable; dropping the first does too, so H is non-decreasing in i.
func (c *Completer) hostEnd(e int32, i, d int) int {
	n := len(c.syms)
	el := &c.elems[e]
	if i == n || el.decl == nil || el.decl.Category == dtd.Empty {
		return i
	}
	r := c.row(e, d)
	if i >= int(r.sat) {
		return n
	}
	if h := c.ends[int(r.off)+i]; h >= 0 {
		return int(h)
	}
	h := i
	if el.decl.Category == dtd.Any {
		// ANY hosts any declared elements and text.
		for h < n && c.syms[h] >= 0 && (c.syms[h] == 0 || c.elems[c.syms[h]].decl != nil) {
			h++
		}
	} else {
		h = c.sweep(el, i, d)
	}
	c.ends[int(r.off)+i] = int32(h)
	if h == n {
		r.sat = int32(i)
	}
	return h
}

// row returns the (e, d) row of the H table, claiming len(items)+1
// unknown (-1) entries for it on its first use in this arrangement.
func (c *Completer) row(e int32, d int) *endRow {
	r := &c.rows[d*len(c.elems)+int(e)]
	if r.gen == c.gen {
		return r
	}
	size := len(c.syms) + 1
	if c.endsTop+size > len(c.ends) {
		grown := make([]int32, max(2*len(c.ends), c.endsTop+size))
		copy(grown, c.ends[:c.endsTop])
		c.ends = grown
	}
	for k := c.endsTop; k < c.endsTop+size; k++ {
		c.ends[k] = -1
	}
	*r = endRow{gen: c.gen, off: int32(c.endsTop), sat: int32(size)}
	c.endsTop += size
	return r
}

// sweep computes H(e, i, d) for an element with Children or Mixed content
// by running e's model forward over items i, i+1, …, N. Before item k, cur
// holds the positions at which items [i, k) can end: the start, positions
// whose symbol matched item k-1, and positions whose inserted element can
// wrap through item k-1. Their closure under "follow" is free — a
// successor is entered without consuming an item, a PCDATA position
// through empty text and an element position through an empty insertion —
// and k is a hostable end when the closure meets an end position. A
// non-hostable k ends the sweep, since hostable ends form the prefix i..H.
// Item k moves to the successors whose symbol it matches, and, with budget
// left, every element successor q opens the wrap interval (k, H(e_q, k,
// d-1)]. The nested H has a smaller budget, so the recursion ends.
func (c *Completer) sweep(el *elemInfo, i, d int) int {
	s := &c.levels[d]
	w := el.words
	cur, next, reach, open, until := s.cur[:w], s.next[:w], s.reach[:w], s.open[:w], s.until
	clear(cur)
	clear(open)
	cur[0] = 1 // the virtual start
	n := len(c.syms)
	h := i
	for k := i; ; k++ {
		c.work++
		for x, word := range open {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				if int(until[x*64+b]) >= k {
					cur[x] |= 1 << b
				} else {
					open[x] &^= 1 << b
				}
			}
		}
		clear(reach)
		for x, word := range cur {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				for y, v := range el.reach[(x*64+b)*w : (x*64+b+1)*w] {
					reach[y] |= v
				}
			}
		}
		hostable := false
		for y, v := range el.endSet {
			if (cur[y]|reach[y])&v != 0 {
				hostable = true
				break
			}
		}
		if !hostable {
			break
		}
		h = k
		if k == n {
			break
		}
		clear(next)
		item := c.syms[k]
		for x, word := range reach {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				q := x*64 + b
				sym := el.sym[q]
				if sym == item {
					next[x] |= 1 << b
				}
				if sym != 0 && d > 0 {
					// H is non-decreasing in the start, so this interval
					// ends no earlier than one q opened before.
					if end := c.hostEnd(sym, k, d-1); end > k {
						until[q] = int32(end)
						open[x] |= 1 << b
					}
				}
			}
		}
		cur, next = next, cur
	}
	return h
}

// render reconstructs the completed child list from the DP decisions, on
// the tree path: the items are c.items[d.off:].
func (d *dp) render(start dpVal, log *insLog) []*dom.Node {
	out := make([]*dom.Node, 0, len(d.syms))
	p, i := 0, 0
	v := start
	for {
		switch v.kind {
		case accept:
			return out
		case skip:
			p = int(v.q)
		case consume:
			out = append(out, d.c.items[d.off+i])
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
		v = d.next(p, i)
	}
}

// next returns the plan's decision at state (p, i).
func (d *dp) next(p, i int) dpVal {
	v := d.memo[p*(len(d.syms)+1)+i]
	if v.kind == unset {
		panic("complete: broken plan chain")
	}
	return v
}

// buildHost constructs the inserted element with id sym wrapping items
// [i, j), completing its interior recursively.
//
// The sub-DP cannot fail. j ≤ H(sym, off+i, depth-1), so the sweep found
// an embedding of the range. The sub-DP searches a fixed graph: its host
// edges come from the H table, not from the search itself. A depth-first
// search over a fixed graph that counts an in-progress state as failure
// still decides exactly whether its root reaches an accepting state. And
// the one host edge the DP keeps per successor (to the range end
// min(H, j)) loses no embedding, since every state it drops reaches accept
// only if the state it keeps does.
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
		for _, it := range d.c.items[d.off+i : d.off+j] {
			h.Append(it)
		}
		return h
	}
	sub, plan := d.host(el, i, j)
	defer d.c.release(&sub)
	h.Children = sub.render(plan, log)
	for _, ch := range h.Children {
		ch.Parent = h
	}
	return h
}

// host solves the sub-DP of the inserted element el wrapping items
// [i, j), which cannot fail (see buildHost). The caller releases it.
func (d *dp) host(el *elemInfo, i, j int) (dp, dpVal) {
	sub := d.c.newDP(el, d.syms[i:j], d.depth-1, d.off+i)
	plan, ok := sub.solveStart()
	if !ok {
		panic("complete: host became infeasible during render")
	}
	return sub, plan
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
