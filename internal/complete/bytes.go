package complete

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/xmltext"
)

// The byte path completes a document over its input bytes (CompleteBytes).
// Definition 3 makes a completion the input plus inserted tag pairs and
// nothing else, so the path builds no tree:
//
//   - One token pass applies the tree builder's well-formedness rules
//     (dom.WellFormed), drives the completer's stream checker and fills a
//     flat item table: per element its tag offsets and its child items, an
//     item being an element or a run of text that only comments, PIs and
//     empty text separate, as the checker's σ collapse (Δ_T) reads it.
//   - A potentially valid document that is not valid runs the DP on the
//     table's symbols, element by element, children first as on the tree
//     path.
//   - Rendering emits an insertion script per element: a byte offset and
//     an element per entry, an open tag, a close tag or a memoized minimal
//     instance. A wrapper of items [i, j) opens at item i's first byte and
//     closes after item j-1's last byte; an empty insertion goes just
//     before item i, or just before the parent's end tag when no item is
//     left. Tags go only between items, so comments and PIs never move.
//   - The output is the input with the script spliced in. An empty-element
//     tag <x/> that receives content is written <x>…</x>; every other
//     input byte is kept.
//
// On an input that is its own serialization the output, the inserted
// count and the insertion records are the tree path's (FuzzCompleteBytesVsTree).

// Completion is the outcome of CompleteBytes.
type Completion struct {
	// Output is the completed document: the input with the inserted tags
	// spliced in, or the input itself when it is already valid. It lives
	// in a buffer the Completer owns, valid until its next call.
	Output []byte
	// Inserted counts the inserted elements.
	Inserted int
	// AlreadyValid reports an input that is valid as it stands: it took
	// no DP and Output is the input.
	AlreadyValid bool
	// Insertions holds one record per inserted element, in document
	// order, when asked for; they are the caller's.
	Insertions []diff.Insertion
}

// element is one element of the scanned document. The table holds the
// elements in the order they close (post-order), so an element's
// descendants precede it, contiguously from desc.
type element struct {
	id int32 // completer id
	// inner is where an insertion after the last child goes: the end
	// tag's '<', or the '>' of an empty-element tag.
	inner int32
	// Its child items are items[first : first+n]; nodes counts its
	// children as a parsed tree holds them (merged text, comments, PIs,
	// elements), the coordinates of diff's Index.
	first, n, nodes int32
	desc            int32 // table index of its first descendant, or its own
	// Its arrangement's script entries are steps[steps:stepsEnd].
	steps, stepsEnd int32
	empty           bool // written as an empty-element tag <x/>
}

// item is one child item of an element: an element or a text run.
type item struct {
	start, end int32 // byte span
	// node and nodeEnd delimit the parent's tree child nodes the item
	// spans (a text run spans its comments and PIs too).
	node, nodeEnd int32
	elem          int32 // table index of an element item; -1 for text
}

// openElement is an element the scan is inside of.
type openElement struct {
	id, desc  int32
	pend      int32 // its items start at pend[pend]
	nodes     int32
	run       int32 // pend index of its open text run, or -1
	runSpace  bool  // the open run is whitespace so far, under dropSpace
	lastText  bool  // its last child node is text, which text joins
	dropSpace bool  // whitespace-only runs are decoration (element content)
	empty     bool
}

// The kinds of a script entry.
const (
	stepOpen   uint8 = iota // <name> of a wrapper
	stepClose               // </name> of a wrapper
	stepEmpty               // a minimal instance, for an empty insertion
	stepExpand              // the '/' of <x/> that receives content becomes '>'
	stepShut                // </x of that element, before the tag's own '>'
)

// step is one entry of the insertion script.
type step struct {
	off  int32 // input offset the entry goes before
	node int32 // the same place in the parent's tree child nodes
	id   int32 // the element
	kind uint8
}

// minimalInstance is the memoized minimal valid instance of an element
// (synthesizeMinimal) in the byte path's form.
type minimalInstance struct {
	xml  []byte // its serialization
	size int    // its elements
	// recs are the records of its descendants, their paths relative to
	// the instance's own (paths[rec.path]).
	recs  []minimalRecord
	paths []string
}

type minimalRecord struct {
	path, index int32
	name        string
}

// level is one element of the completed tree on the record walk's path.
// Its coordinates are the tree child nodes of the original element it
// sits in: count children emitted, and nodes up to node accounted for.
type level struct {
	count, node int32
	path        int32 // its path is walkPath[:path]
	names       int32 // its same-name sibling counts start at names[names]
	str         string
}

type nameCount struct{ id, n int32 }

// bytePath is CompleteBytes' state. It keeps no reference to an input
// once a call returns, and drops tables past maxRetainedTable entries and
// an output buffer past maxRetainedOut bytes.
type bytePath struct {
	lx     xmltext.ByteLexer
	wf     dom.WellFormed
	byCore []int32 // core symbol id → completer id

	elTable   []element
	itemTable []item
	itemSyms  []int32 // the items' symbol ids, parallel to itemTable
	open      []openElement
	pend      []item // items of the open elements, in document order
	pendSyms  []int32
	base      int32 // items index of the current arrangement's first item

	steps    []step
	minimals []*minimalInstance // by completer id, filled on first use

	out  []byte
	last int32 // input bytes before last are in out

	// The record walk (withDiff).
	recs      []diff.Insertion
	walk      []level
	walkPath  []byte
	names     []nameCount
	pathCache []string
}

const (
	maxRetainedTable = 1 << 16
	maxRetainedOut   = 1 << 20
)

// initBytePath builds the dense core-id → completer-id map.
func (c *Completer) initBytePath() {
	c.byCore = make([]int32, len(c.schema.DTD.Order)+1)
	c.minimals = make([]*minimalInstance, len(c.elems))
	for id := 1; id < len(c.elems); id++ {
		if core := c.schema.SymbolID([]byte(c.elems[id].name)); core > 0 {
			c.byCore[core] = int32(id)
		}
	}
}

var errTooLarge = errors.New("complete: document larger than 2 GiB")

// CompleteBytes completes the document src over its bytes: the byte-path
// twin of CompleteInPlace over src's parse, without the parse. A
// malformed document fails with the tree parser's error, also when a
// violation comes earlier in it. A document that is not potentially valid
// fails with a core.ViolationError. A valid one comes back as itself, as
// does one the validator accepts although the checker reads its
// whitespace in element content as character data (ValidBytes). withDiff
// asks for the insertion records.
func (c *Completer) CompleteBytes(src []byte, withDiff bool) (Completion, error) {
	if len(src) > math.MaxInt32 {
		return Completion{}, errTooLarge
	}
	defer c.releaseBytes()
	verdict, err := c.scan(src)
	if err != nil {
		return Completion{}, err
	}
	if verdict != nil {
		if !core.IsViolation(verdict) {
			return Completion{}, verdict
		}
		if c.checker.ValidBytes(src) {
			return Completion{Output: src, AlreadyValid: true}, nil
		}
		return Completion{}, &core.ViolationError{Reason: "complete: document is not potentially valid: " + verdict.Error()}
	}
	if c.checker.StrictlyValid() {
		return Completion{Output: src, AlreadyValid: true}, nil
	}
	inserted := 0
	c.steps = c.steps[:0]
	for e := range c.elTable {
		n, err := c.planElement(int32(e))
		if err != nil {
			return Completion{}, err
		}
		inserted += n
	}
	if withDiff && inserted > 0 {
		c.recs = make([]diff.Insertion, 0, inserted)
	}
	c.splice(src, withDiff)
	return Completion{Output: c.out, Inserted: inserted, Insertions: c.recs}, nil
}

// releaseBytes drops every reference into the input and to the records,
// and tables past their bounds.
func (c *Completer) releaseBytes() {
	c.lx.Reset(nil)
	c.wf.Reset()
	c.recs = nil
	clear(c.walk[:cap(c.walk)])
	clear(c.pathCache[:cap(c.pathCache)])
	if cap(c.out) > maxRetainedOut {
		c.out = nil
	}
	if cap(c.itemTable) > maxRetainedTable || cap(c.pend) > maxRetainedTable {
		c.itemTable, c.itemSyms, c.pend, c.pendSyms = nil, nil, nil, nil
	}
	if cap(c.elTable) > maxRetainedTable || cap(c.open) > maxRetainedTable || cap(c.steps) > maxRetainedTable {
		c.elTable, c.open, c.steps = nil, nil, nil
	}
	if cap(c.walk) > maxRetainedTable || cap(c.walkPath) > maxRetainedOut || cap(c.names) > maxRetainedTable {
		c.walk, c.walkPath, c.names, c.pathCache = nil, nil, nil, nil
	}
}

// scan is the token pass. It returns the checker's first error as the
// verdict, and the lexer's or the tree builder's error, which takes
// precedence, as err: after a verdict the pass lexes on to the end for
// well-formedness only.
func (c *Completer) scan(src []byte) (verdict, err error) {
	c.lx.Reset(src)
	c.wf.Reset()
	ck := c.checker
	ck.Reset()
	c.elTable, c.itemTable, c.itemSyms = c.elTable[:0], c.itemTable[:0], c.itemSyms[:0]
	c.open, c.pend, c.pendSyms = c.open[:0], c.pend[:0], c.pendSyms[:0]
	for {
		tok, err := c.lx.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			break
		}
		if err := c.wf.Token(tok); err != nil {
			return nil, err
		}
		if verdict != nil {
			continue
		}
		switch tok.Kind {
		case xmltext.StartTag:
			if verdict = ck.StartElement(tok.Name); verdict == nil {
				c.startElement(tok)
			}
		case xmltext.EndTag:
			if verdict = ck.EndElement(tok.Name); verdict == nil {
				c.endElement(tok)
			}
		case xmltext.Text:
			if verdict = ck.Text(tok.Data); verdict == nil && len(tok.Data) > 0 && len(c.open) > 0 {
				c.text(tok)
			}
		case xmltext.Comment, xmltext.ProcInst:
			if n := len(c.open); n > 0 {
				c.open[n-1].nodes++
				c.open[n-1].lastText = false
			}
		}
	}
	if err := c.wf.End(); err != nil {
		return nil, err
	}
	if verdict == nil {
		verdict = ck.Close()
	}
	return verdict, nil
}

// startElement opens an element the checker accepted, so a declared one.
func (c *Completer) startElement(tok *xmltext.ByteToken) {
	id := c.byCore[c.schema.SymbolID(tok.Name)]
	if n := len(c.open); n > 0 {
		p := &c.open[n-1]
		c.endRun(p)
		c.pend = append(c.pend, item{start: int32(tok.Pos.Offset), node: p.nodes, nodeEnd: p.nodes + 1})
		c.pendSyms = append(c.pendSyms, id)
		p.nodes++
		p.lastText = false
	}
	c.open = append(c.open, openElement{
		id: id, desc: int32(len(c.elTable)), pend: int32(len(c.pend)), run: -1,
		dropSpace: c.elems[id].decl.Category == dtd.Children, empty: tok.SelfClose,
	})
}

// endElement closes the innermost element: its pending items move to the
// item table, contiguously, and it takes the next table index.
func (c *Completer) endElement(tok *xmltext.ByteToken) {
	f := &c.open[len(c.open)-1]
	c.endRun(f)
	e := element{
		id: f.id, inner: int32(tok.Pos.Offset),
		first: int32(len(c.itemTable)), n: int32(len(c.pend)) - f.pend, nodes: f.nodes,
		desc: f.desc, empty: f.empty,
	}
	if f.empty {
		e.inner = int32(tok.End) - 1 // the synthetic end tag sits after "/>"
	}
	c.itemTable = append(c.itemTable, c.pend[f.pend:]...)
	c.itemSyms = append(c.itemSyms, c.pendSyms[f.pend:]...)
	c.pend, c.pendSyms = c.pend[:f.pend], c.pendSyms[:f.pend]
	c.open = c.open[:len(c.open)-1]
	if len(c.open) > 0 {
		it := &c.pend[len(c.pend)-1] // this element's own item
		it.end, it.elem = int32(tok.End), int32(len(c.elTable))
	}
	c.elTable = append(c.elTable, e)
}

// text adds a nonempty text token to the innermost element's open run,
// starting one if none is open.
func (c *Completer) text(tok *xmltext.ByteToken) {
	f := &c.open[len(c.open)-1]
	if !f.lastText {
		f.nodes++
		f.lastText = true
	}
	if f.run < 0 {
		f.run, f.runSpace = int32(len(c.pend)), true
		c.pend = append(c.pend, item{start: int32(tok.Pos.Offset), node: f.nodes - 1, elem: -1})
		c.pendSyms = append(c.pendSyms, 0)
	}
	it := &c.pend[f.run]
	it.end, it.nodeEnd = int32(tok.End), f.nodes
	if f.runSpace && f.dropSpace && !isWhitespace(tok.Data) {
		f.runSpace = false
	}
}

// endRun closes f's open text run. A whitespace-only run in element
// content is decoration, as splitItems treats it, and leaves the items.
func (c *Completer) endRun(f *openElement) {
	if f.run < 0 {
		return
	}
	if f.dropSpace && f.runSpace {
		c.pend, c.pendSyms = c.pend[:f.run], c.pendSyms[:f.run]
	}
	f.run = -1
}

// planElement arranges element e's items into its model and appends the
// arrangement's script, returning the number of elements it inserts. Its
// errors are completeNode's; the checker accepted every element, so each
// is declared.
func (c *Completer) planElement(e int32) (int, error) {
	E := &c.elTable[e]
	E.steps = int32(len(c.steps))
	E.stepsEnd = E.steps
	el := &c.elems[E.id]
	switch el.decl.Category {
	case dtd.Empty:
		if E.n > 0 {
			return 0, fmt.Errorf("complete: EMPTY <%s> has content", el.name)
		}
		return 0, nil
	case dtd.Any:
		return 0, nil
	}
	c.syms, c.base = c.itemSyms[E.first:E.first+E.n], E.first
	d, plan, ok := c.solveArrangement(el, c.depth)
	if !ok {
		return 0, fmt.Errorf("complete: inside <%s>: no embedding of %d children into model of <%s>", el.name, E.n, el.name)
	}
	if E.empty {
		c.steps = append(c.steps, step{off: E.inner - 1, id: E.id, kind: stepExpand})
	}
	mark := len(c.steps)
	inserted := c.script(d, plan, E.inner, E.nodes)
	switch {
	case !E.empty:
	case len(c.steps) == mark:
		c.steps = c.steps[:mark-1] // nothing goes inside: <x/> stays
	default:
		c.steps = append(c.steps, step{off: E.inner, id: E.id, kind: stepShut})
	}
	E.stepsEnd = int32(len(c.steps))
	return inserted, nil
}

// script appends the insertion script of d's plan to c.steps and returns
// the number of elements it inserts. end and endNode locate the place
// after d's last item: where an empty insertion goes when no item is
// left.
func (c *Completer) script(d dp, start dpVal, end, endNode int32) int {
	items := c.itemTable[int(c.base)+d.off : int(c.base)+d.off+len(d.syms)]
	inserted := 0
	p, i := 0, 0
	for v := start; v.kind != accept; v = d.next(p, i) {
		switch v.kind {
		case consume:
			i++
		case host:
			sym := d.el.sym[v.q]
			if v.j == i {
				st := step{off: end, node: endNode, id: sym, kind: stepEmpty}
				if i < len(items) {
					st.off, st.node = items[i].start, items[i].node
				}
				c.steps = append(c.steps, st)
				inserted += c.minimalFor(sym).size
				break
			}
			first, last := &items[i], &items[v.j-1]
			c.steps = append(c.steps, step{off: first.start, node: first.node, id: sym, kind: stepOpen})
			inserted++
			if el := &c.elems[sym]; el.decl.Category != dtd.Any {
				sub, plan := d.host(el, i, v.j)
				inserted += c.script(sub, plan, last.end, last.nodeEnd)
				c.release(&sub)
			}
			c.steps = append(c.steps, step{off: last.end, node: last.nodeEnd, id: sym, kind: stepClose})
			i = v.j
		case skip:
		default:
			panic("complete: script on failed plan")
		}
		p = int(v.q)
	}
	return inserted
}

// minimalFor returns the memoized minimal instance of element id.
func (c *Completer) minimalFor(id int32) *minimalInstance {
	if m := c.minimals[id]; m != nil {
		return m
	}
	n := c.synthesizeMinimal(c.elems[id].name)
	m := &minimalInstance{xml: n.AppendXML(nil)}
	all := map[*dom.Node]bool{}
	n.Walk(func(x *dom.Node) bool {
		all[x] = true
		return true
	})
	m.size = len(all)
	own := len("/") + len(n.Name)
	for _, r := range diff.Records(n, all)[1:] {
		rel := r.Path[own:]
		k := len(m.paths) - 1
		for k >= 0 && m.paths[k] != rel {
			k--
		}
		if k < 0 {
			k = len(m.paths)
			m.paths = append(m.paths, rel)
		}
		m.recs = append(m.recs, minimalRecord{path: int32(k), index: int32(r.Index), name: r.Name})
	}
	c.minimals[id] = m
	return m
}

// splice writes the output: the input with the script spliced in, in
// document order. The script comes per element, children before parents;
// walking the elements from the root in document order, each element's
// entries before a child element's start go before that child's own, and
// no entry of an element lies inside a child's span. withDiff runs the
// record walk alongside.
func (c *Completer) splice(src []byte, withDiff bool) {
	c.out, c.last = c.out[:0], 0
	root := int32(len(c.elTable) - 1)
	if withDiff {
		c.walk, c.names = c.walk[:0], c.names[:0]
		c.walkPath = append(append(c.walkPath[:0], '/'), c.elems[c.elTable[root].id].name...)
		c.walk = append(c.walk, level{path: int32(len(c.walkPath))})
	}
	c.emit(src, root, withDiff)
	c.out = append(c.out, src[c.last:]...)
}

// emit writes element e's script entries interleaved with its child
// elements', descending only into children whose subtree has entries.
func (c *Completer) emit(src []byte, e int32, withDiff bool) {
	E := &c.elTable[e]
	s := E.steps
	for k := E.first; k < E.first+E.n; k++ {
		it := &c.itemTable[k]
		if it.elem < 0 {
			continue
		}
		for s < E.stepsEnd && c.steps[s].off <= it.start {
			c.emitStep(src, s, withDiff)
			s++
		}
		X := &c.elTable[it.elem]
		descend := c.elTable[X.desc].steps < X.stepsEnd
		if withDiff {
			_, occ := c.child(X.id, it.node)
			c.walk[len(c.walk)-1].node++
			if descend {
				c.push(X.id, occ, 0)
			}
		}
		if descend {
			c.emit(src, it.elem, withDiff)
			if withDiff {
				c.pop()
			}
		}
	}
	for ; s < E.stepsEnd; s++ {
		c.emitStep(src, s, withDiff)
	}
}

// emitStep writes one script entry and, withDiff, its records.
func (c *Completer) emitStep(src []byte, s int32, withDiff bool) {
	st := c.steps[s]
	c.out = append(c.out, src[c.last:st.off]...)
	c.last = st.off
	name := c.elems[st.id].name
	switch st.kind {
	case stepOpen:
		c.out = append(append(append(c.out, '<'), name...), '>')
		if withDiff {
			idx, occ := c.child(st.id, st.node)
			c.recs = append(c.recs, diff.Insertion{Path: c.pathOf(len(c.walk) - 1), Index: int(idx), Name: name})
			c.push(st.id, occ, st.node)
		}
	case stepClose:
		c.out = append(append(append(c.out, "</"...), name...), '>')
		if withDiff {
			c.pop()
			c.walk[len(c.walk)-1].node = st.node
		}
	case stepEmpty:
		m := c.minimalFor(st.id)
		c.out = append(c.out, m.xml...)
		if withDiff {
			c.minimalRecords(st, m)
		}
	case stepExpand:
		c.out = append(c.out, '>')
		c.last++
	case stepShut:
		c.out = append(append(c.out, "</"...), name...)
	}
}

// child counts an element of id at tree child node node of the innermost
// level, inserted or original, and returns its index among the level's
// children and its occurrence among its same-name siblings.
func (c *Completer) child(id, node int32) (idx, occ int32) {
	L := &c.walk[len(c.walk)-1]
	idx = L.count + node - L.node
	L.count, L.node = idx+1, node
	for k := L.names; k < int32(len(c.names)); k++ {
		if c.names[k].id == id {
			c.names[k].n++
			return idx, c.names[k].n - 1
		}
	}
	c.names = append(c.names, nameCount{id: id, n: 1})
	return idx, 0
}

// push enters a child element of the innermost level: its path is the
// level's plus name[occ], and its tree child nodes start at node of the
// original element it sits in (0 for an original element).
func (c *Completer) push(id, occ, node int32) {
	c.walkPath = appendSegment(c.walkPath, c.elems[id].name, occ)
	c.walk = append(c.walk, level{node: node, path: int32(len(c.walkPath)), names: int32(len(c.names))})
}

func appendSegment(path []byte, name string, occ int32) []byte {
	path = append(append(path, '/'), name...)
	path = strconv.AppendInt(append(path, '['), int64(occ), 10)
	return append(path, ']')
}

// pop leaves the innermost level.
func (c *Completer) pop() {
	top := len(c.walk) - 1
	c.names = c.names[:c.walk[top].names]
	c.walk = c.walk[:top]
	c.walkPath = c.walkPath[:c.walk[top-1].path]
}

// pathOf renders level k's path once, for all its records.
func (c *Completer) pathOf(k int) string {
	L := &c.walk[k]
	if L.str == "" {
		L.str = string(c.walkPath[:L.path])
	}
	return L.str
}

// minimalRecords appends the records of a minimal instance inserted by
// st: its own, then its descendants', their paths rendered once per
// parent.
func (c *Completer) minimalRecords(st step, m *minimalInstance) {
	path := c.pathOf(len(c.walk) - 1)
	idx, occ := c.child(st.id, st.node)
	name := c.elems[st.id].name
	c.recs = append(c.recs, diff.Insertion{Path: path, Index: int(idx), Name: name, Synthesized: true})
	if len(m.recs) == 0 {
		return
	}
	own := len(c.walkPath)
	c.walkPath = appendSegment(c.walkPath, name, occ)
	mark := len(c.walkPath)
	paths := c.pathCache[:0]
	for range m.paths {
		paths = append(paths, "")
	}
	for _, r := range m.recs {
		if paths[r.path] == "" {
			paths[r.path] = string(append(c.walkPath[:mark], m.paths[r.path]...))
		}
		c.recs = append(c.recs, diff.Insertion{Path: paths[r.path], Index: int(r.index), Name: r.name, Synthesized: true})
	}
	clear(paths)
	c.pathCache = paths
	c.walkPath = c.walkPath[:own]
}
