// Package gen generates workloads for tests, examples and benchmarks:
// random DTDs of each recursion class, random valid documents, tag-stripped
// (hence potentially valid, by Theorem 2) documents, corrupted documents,
// and document-centric editing traces. Everything is deterministic in the
// provided *rand.Rand.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/reach"
)

// DTDClass selects the recursion class of a generated DTD (Definitions
// 6-8).
type DTDClass int

const (
	// ClassNonRecursive generates layered DTDs with no recursion.
	ClassNonRecursive DTDClass = iota
	// ClassWeak adds recursion only inside star-groups.
	ClassWeak
	// ClassStrong adds recursion through non-star-group occurrences.
	ClassStrong
)

// DTDOptions parameterizes RandDTD.
type DTDOptions struct {
	// Elements is the number of element types m (≥ 2).
	Elements int
	// MaxChildren bounds the references per content model.
	MaxChildren int
	// Class is the desired recursion class.
	Class DTDClass
	// MixedFraction (0..1) is the share of mixed-content declarations
	// among the leaf-most third of elements.
	MixedFraction float64
}

func (o *DTDOptions) defaults() {
	if o.Elements < 2 {
		o.Elements = 2
	}
	if o.MaxChildren <= 0 {
		o.MaxChildren = 4
	}
	if o.MixedFraction == 0 {
		o.MixedFraction = 0.5
	}
}

// elemName returns the name of generated element i: e0, e1, ...
func elemName(i int) string { return fmt.Sprintf("e%d", i) }

// RandDTD generates a random DTD with m elements named e0..e{m-1}, rooted
// at e0. Layering guarantees productivity and reachability: element ei only
// references elements ej with j > i (plus controlled back-references for
// the recursive classes), and the last elements are leaves (EMPTY or
// PCDATA). The result always compiles (all elements usable).
func RandDTD(rng *rand.Rand, opts DTDOptions) *dtd.DTD {
	opts.defaults()
	m := opts.Elements
	var b strings.Builder
	for i := 0; i < m; i++ {
		name := elemName(i)
		// The last ~third of elements are leaves so every chain bottoms
		// out.
		if i >= m-1-(m/3) && i != 0 {
			if rng.Float64() < opts.MixedFraction {
				fmt.Fprintf(&b, "<!ELEMENT %s (#PCDATA)>\n", name)
			} else {
				fmt.Fprintf(&b, "<!ELEMENT %s EMPTY>\n", name)
			}
			continue
		}
		model := randModel(rng, i, m, opts)
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, model)
		_ = name
	}
	d, err := dtd.Parse(b.String())
	if err != nil {
		panic(fmt.Sprintf("gen: generated DTD does not parse: %v\n%s", err, b.String()))
	}
	return d
}

// randModel builds a content-model string for element i referencing only
// later elements (j > i), with recursion injected per the class.
func randModel(rng *rand.Rand, i, m int, opts DTDOptions) string {
	// Candidate references: strictly later elements.
	later := func() string {
		j := i + 1 + rng.Intn(m-i-1)
		return elemName(j)
	}
	n := 1 + rng.Intn(opts.MaxChildren)
	parts := make([]string, 0, n+1)
	for k := 0; k < n; k++ {
		switch rng.Intn(6) {
		case 0:
			parts = append(parts, later()+"?")
		case 1:
			parts = append(parts, later()+"*")
		case 2:
			parts = append(parts, later()+"+")
		case 3:
			// A small choice group.
			parts = append(parts, "("+later()+" | "+later()+")")
		default:
			parts = append(parts, later())
		}
	}
	// Recursion injection: a back-reference to self or an earlier element.
	if i > 0 || m > 2 {
		back := elemName(rng.Intn(i + 1)) // self or earlier
		switch opts.Class {
		case ClassWeak:
			// Inside a star-group: (back, x)* or mixed-style choice star.
			parts = append(parts, "("+back+" | "+later()+")*")
		case ClassStrong:
			// Outside any star-group, but optional so the element stays
			// productive: (back | leaf).
			parts = append(parts, "("+back+" | "+later()+")")
		}
	}
	if len(parts) == 1 && !strings.HasPrefix(parts[0], "(") {
		return "(" + parts[0] + ")"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// words for generated text content.
var loremWords = []string{
	"quick", "brown", "fox", "jumps", "over", "lazy", "dog", "editor",
	"markup", "scholar", "folio", "quarto", "verse", "stanza", "gloss",
}

// RandText returns 1-4 random words.
func RandText(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = loremWords[rng.Intn(len(loremWords))]
	}
	return strings.Join(parts, " ")
}

// DocOptions parameterizes GenValid.
type DocOptions struct {
	// MaxDepth bounds element nesting (the generator may exceed it only
	// where the DTD forces deeper structure; layered RandDTD output never
	// does).
	MaxDepth int
	// MaxRepeat bounds how many repetitions a * or + expands to.
	MaxRepeat int
}

func (o *DocOptions) defaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MaxRepeat <= 0 {
		o.MaxRepeat = 3
	}
}

// GenValid produces a random document that is fully valid w.r.t. d and
// root, by expanding content models top-down. Choice alternatives that can
// terminate within the depth budget are preferred; the minimal-height
// alternative is forced when the budget is exhausted.
func GenValid(rng *rand.Rand, d *dtd.DTD, root string, opts DocOptions) *dom.Node {
	opts.defaults()
	g := &docGen{rng: rng, dtd: d, opts: opts, minH: minHeights(d)}
	return g.element(root, opts.MaxDepth)
}

type docGen struct {
	rng  *rand.Rand
	dtd  *dtd.DTD
	opts DocOptions
	minH map[string]int
}

// minHeights computes, per element, the minimal subtree height of any valid
// instance (1 for leaves). Unproductive elements get a large sentinel.
func minHeights(d *dtd.DTD) map[string]int {
	const inf = 1 << 20
	h := make(map[string]int, len(d.Order))
	for _, n := range d.Order {
		h[n] = inf
	}
	for changed := true; changed; {
		changed = false
		for _, n := range d.Order {
			decl := d.Elements[n]
			var hh int
			switch decl.Category {
			case dtd.Empty, dtd.Any, dtd.Mixed:
				hh = 1
			default:
				hh = 1 + exprMinHeight(decl.Model, h)
			}
			if hh < h[n] {
				h[n] = hh
				changed = true
			}
		}
	}
	return h
}

// exprMinHeight is the minimal child-height needed to satisfy e (0 if e is
// nullable or contains only PCDATA).
func exprMinHeight(e *contentmodel.Expr, h map[string]int) int {
	const inf = 1 << 20
	switch e.Kind {
	case contentmodel.KindPCDATA:
		return 0
	case contentmodel.KindName:
		v := h[e.Name]
		if v >= inf {
			return inf
		}
		return v
	case contentmodel.KindSeq:
		max := 0
		for _, c := range e.Children {
			v := exprMinHeight(c, h)
			if v > max {
				max = v
			}
		}
		return max
	case contentmodel.KindChoice:
		best := inf
		for _, c := range e.Children {
			if v := exprMinHeight(c, h); v < best {
				best = v
			}
		}
		return best
	case contentmodel.KindStar, contentmodel.KindOpt:
		return 0
	case contentmodel.KindPlus:
		return exprMinHeight(e.Children[0], h)
	}
	return inf
}

func (g *docGen) element(name string, budget int) *dom.Node {
	n := dom.NewElement(name)
	decl := g.dtd.Elements[name]
	switch decl.Category {
	case dtd.Empty:
		return n
	case dtd.Any:
		// Keep ANY content simple: optional text.
		if g.rng.Intn(2) == 0 {
			n.Append(dom.NewText(RandText(g.rng)))
		}
		return n
	case dtd.Mixed:
		g.mixed(n, decl.Model, budget)
		return n
	default:
		for _, child := range g.expand(decl.Model, budget) {
			n.Append(child)
		}
		return n
	}
}

func (g *docGen) mixed(parent *dom.Node, model *contentmodel.Expr, budget int) {
	names := model.ElementNames()
	reps := g.rng.Intn(g.opts.MaxRepeat + 1)
	parent.Append(dom.NewText(RandText(g.rng)))
	for i := 0; i < reps && len(names) > 0; i++ {
		child := names[g.rng.Intn(len(names))]
		if budget-1 < g.minH[child] {
			continue
		}
		parent.Append(g.element(child, budget-1))
		parent.Append(dom.NewText(RandText(g.rng)))
	}
}

// expand produces a child-node sequence matching e within the height
// budget.
func (g *docGen) expand(e *contentmodel.Expr, budget int) []*dom.Node {
	switch e.Kind {
	case contentmodel.KindPCDATA:
		if g.rng.Intn(2) == 0 {
			return []*dom.Node{dom.NewText(RandText(g.rng))}
		}
		return nil
	case contentmodel.KindName:
		return []*dom.Node{g.element(e.Name, budget-1)}
	case contentmodel.KindSeq:
		var out []*dom.Node
		for _, c := range e.Children {
			out = append(out, g.expand(c, budget)...)
		}
		return out
	case contentmodel.KindChoice:
		// Prefer alternatives that fit the budget.
		var fits []*contentmodel.Expr
		for _, c := range e.Children {
			if exprMinHeight(c, g.minH) <= budget-1 {
				fits = append(fits, c)
			}
		}
		if len(fits) == 0 {
			// Forced: take the minimal-height alternative.
			best := e.Children[0]
			for _, c := range e.Children[1:] {
				if exprMinHeight(c, g.minH) < exprMinHeight(best, g.minH) {
					best = c
				}
			}
			return g.expand(best, budget)
		}
		return g.expand(fits[g.rng.Intn(len(fits))], budget)
	case contentmodel.KindStar, contentmodel.KindPlus:
		min := 0
		if e.Kind == contentmodel.KindPlus {
			min = 1
		}
		reps := min
		if exprMinHeight(e.Children[0], g.minH) <= budget-1 {
			reps += g.rng.Intn(g.opts.MaxRepeat + 1 - min)
		}
		var out []*dom.Node
		for i := 0; i < reps; i++ {
			out = append(out, g.expand(e.Children[0], budget)...)
		}
		return out
	case contentmodel.KindOpt:
		if g.rng.Intn(2) == 0 && exprMinHeight(e.Children[0], g.minH) <= budget-1 {
			return g.expand(e.Children[0], budget)
		}
		return nil
	}
	return nil
}

// Strip removes markup from doc: each non-root element is unwrapped with
// probability fraction. By Theorem 2 the result of stripping a valid (or
// potentially valid) document is potentially valid. It returns the number
// of elements removed. The document is modified in place.
func Strip(rng *rand.Rand, root *dom.Node, fraction float64) int {
	removed := 0
	// Collect first: unwrapping invalidates traversal order.
	var victims []*dom.Node
	root.Walk(func(n *dom.Node) bool {
		if n.Kind == dom.ElementNode && n.Parent != nil && rng.Float64() < fraction {
			victims = append(victims, n)
		}
		return true
	})
	for _, v := range victims {
		v.Unwrap()
		removed++
	}
	return removed
}

// StripAll unwraps every non-root element, leaving only the root holding
// the raw text — the starting point of document-centric encoding. Returns
// the removed elements' names in removal (document) order.
func StripAll(root *dom.Node) []string {
	var names []string
	for {
		var victim *dom.Node
		root.Walk(func(n *dom.Node) bool {
			if victim == nil && n.Kind == dom.ElementNode && n.Parent != nil {
				victim = n
			}
			return victim == nil
		})
		if victim == nil {
			return names
		}
		names = append(names, victim.Name)
		victim.Unwrap()
	}
}

// Corrupt applies one random PV-breaking candidate mutation: renaming an
// element to a random other declared name, or swapping two adjacent element
// children. The result is not guaranteed to break potential validity — the
// caller labels it with a checker; Corrupt just produces plausible editing
// mistakes. Returns false if the document has no mutable spot.
func Corrupt(rng *rand.Rand, d *dtd.DTD, root *dom.Node) bool {
	elems := root.Elements()
	if len(elems) == 0 {
		return false
	}
	switch rng.Intn(2) {
	case 0:
		n := elems[rng.Intn(len(elems))]
		names := d.Names()
		n.Name = names[rng.Intn(len(names))]
		return true
	default:
		// Swap two adjacent element children somewhere.
		var candidates []*dom.Node
		for _, e := range elems {
			count := 0
			for _, c := range e.Children {
				if c.Kind == dom.ElementNode {
					count++
				}
			}
			if count >= 2 {
				candidates = append(candidates, e)
			}
		}
		if len(candidates) == 0 {
			return false
		}
		p := candidates[rng.Intn(len(candidates))]
		var idx []int
		for i, c := range p.Children {
			if c.Kind == dom.ElementNode {
				idx = append(idx, i)
			}
		}
		k := rng.Intn(len(idx) - 1)
		i, j := idx[k], idx[k+1]
		p.Children[i], p.Children[j] = p.Children[j], p.Children[i]
		return true
	}
}

// decorations are what Decorate inserts: mostly markup that neither
// checker nor validator counts as content, sometimes text.
var decorations = []string{
	"<!-- note -->", "<?pi x?>", " ", "\n  ", "<![CDATA[]]>", " <!-- c --> ",
	"<![CDATA[ ]]>", "x", "<!-- c -->y",
}

// Decorate inserts a random decoration before about a quarter of the tags
// of a serialized document: comments, processing instructions,
// whitespace, empty CDATA sections and stray text. Comments, PIs and
// empty CDATA never change a verdict; whitespace and stray text do inside
// EMPTY content or where no character data may go, and stray text makes
// element content invalid.
func Decorate(rng *rand.Rand, xml string) string {
	var b strings.Builder
	for i := 0; i < len(xml); i++ {
		if xml[i] == '<' && i > 0 && rng.Intn(4) == 0 {
			b.WriteString(decorations[rng.Intn(len(decorations))])
		}
		b.WriteByte(xml[i])
	}
	return b.String()
}

// Classify builds the reachability table and returns the DTD's class; a
// convenience for generators' tests and the benchmark harness.
func Classify(d *dtd.DTD) reach.Class { return reach.Build(d).Class() }
