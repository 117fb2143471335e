package core

import (
	"testing"

	"repro/internal/dtd"
	"repro/internal/reach"
)

func figure1Schema(t *testing.T) *Schema {
	t.Helper()
	return MustCompile(dtd.MustParse(dtd.Figure1), "r", Options{})
}

// TestExample1ContentOfA reproduces Figure 6: ECRecognizer on the content
// of <a> for the two encodings of Example 1.
func TestExample1ContentOfA(t *testing.T) {
	s := figure1Schema(t)
	// String w: children of a are b, e, c, σ — rejected (the e/c order
	// contradicts the DTD).
	w := []Symbol{Elem("b"), Elem("e"), Elem("c"), Sigma}
	if s.CheckContent("a", w) {
		t.Errorf("content [%s] of <a> must be rejected", FormatSymbols(w))
	}
	// String s: children of a are b, c, σ, e — accepted (only <d> tags are
	// missing).
	sSeq := []Symbol{Elem("b"), Elem("c"), Sigma, Elem("e")}
	if !s.CheckContent("a", sSeq) {
		t.Errorf("content [%s] of <a> must be accepted", FormatSymbols(sSeq))
	}
}

// TestFigure6RejectPosition pins down where string w fails: Figure 6(A)
// shows the search for the third symbol (c) rejecting.
func TestFigure6RejectPosition(t *testing.T) {
	s := figure1Schema(t)
	w := []Symbol{Elem("b"), Elem("e"), Elem("c"), Sigma}
	if got := s.CheckContentPrefix("a", w); got != 2 {
		t.Errorf("reject position = %d, want 2 (the c after e)", got)
	}
}

// TestFigure6TraceW replays Figure 6(A) step by step, checking the active
// node sets after each symbol.
func TestFigure6TraceW(t *testing.T) {
	s := figure1Schema(t)
	r := s.NewRecognizer("a")
	// Initial active set: {b} (line 8 of the algorithm).
	if got := r.TraceString(); got != "{b}" {
		t.Errorf("initial active = %s, want {b}", got)
	}
	// (1) search for b: found at the simple node b; frontier advances.
	if !r.Validate(Elem("b")) {
		t.Fatal("b must be accepted")
	}
	if got := r.TraceString(); got != "{c f}" {
		t.Errorf("after b: active = %s, want {c f}", got)
	}
	// (2) search for e: c cannot match it and ε-advances to d; both d and f
	// host nested recognizers that find e (the dotted boxes of Figure 6).
	if !r.Validate(Elem("e")) {
		t.Fatal("e must be accepted")
	}
	if got := r.TraceString(); got != "{d+rec([PCDATA, e]) f+rec()}" {
		t.Errorf("after e: active = %s", got)
	}
	// (3) search for c: f's nested recognizer is exhausted, d cannot reach
	// c — reject (step 5 of Figure 6(A)).
	if r.Validate(Elem("c")) {
		t.Error("c must be rejected after b, e")
	}
}

// TestFigure6TraceS replays Figure 6(B): every symbol of b, c, σ, e is
// matched and the content is accepted.
func TestFigure6TraceS(t *testing.T) {
	s := figure1Schema(t)
	r := s.NewRecognizer("a")
	steps := []struct {
		sym  Symbol
		want string
	}{
		// After b: frontier {c, f}.
		{Elem("b"), "{c f}"},
		// After c: c matched exactly (frontier d); f also engages a nested
		// recognizer having found c inside a hypothesized f.
		{Elem("c"), "{d f+rec(e)}"},
		// After σ: d engages its star-group (PCDATA, e); f's recognizer
		// cannot take σ and f ε-advances away (d deduplicates).
		{Sigma, "{d+rec([PCDATA, e])}"},
		// After e: still inside d's star-group.
		{Elem("e"), "{d+rec([PCDATA, e])}"},
	}
	for i, st := range steps {
		if !r.Validate(st.sym) {
			t.Fatalf("step %d: symbol %s rejected", i, st.sym)
		}
		if got := r.TraceString(); got != st.want {
			t.Errorf("step %d (%s): active = %s, want %s", i, st.sym, got, st.want)
		}
	}
}

// TestExample5DepthBoundStopsLoop reproduces Example 5 / Figure 7: for the
// PV-strong recursive DTD T1, the content b, b of <a> is recognized, and
// the number of recognizers created is bounded by the depth bound rather
// than growing without bound.
func TestExample5DepthBoundStopsLoop(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.T1), "a", Options{MaxDepth: 8})
	if s.Class() != reach.PVStrongRecursive {
		t.Fatal("T1 must be PV-strong recursive")
	}
	r := s.NewRecognizer("a")
	if !r.Recognize(Elems("b", "b")) {
		t.Error("content b, b of <a> is potentially valid under T1 (the document is valid)")
	}
	// With depth bound D the chain of nested recognizers is at most D long;
	// Figure 7 shows that without the bound it would be infinite.
	if got := r.Created(); got > 16 {
		t.Errorf("created %d recognizers; depth bound failed to cap recursion", got)
	}
}

// TestExample5DepthScaling: the number of recognizers created grows with
// the depth bound on T1 — the k^D factor of Theorem 4 in its simplest form.
func TestExample5DepthScaling(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.T1), "a", Options{MaxDepth: 4})
	prev := 0
	for _, depth := range []int{2, 4, 8, 16} {
		r := s.NewRecognizerDepth("a", depth)
		if !r.Recognize(Elems("b", "b")) {
			t.Fatalf("depth %d: rejected", depth)
		}
		if r.Created() <= prev {
			t.Errorf("depth %d: created %d, not more than depth %d's %d",
				depth, r.Created(), depth/2, prev)
		}
		prev = r.Created()
	}
}

// TestExample6RecursiveStep reproduces Example 6's point: under T2 a
// recursive step (a nested recognizer for the PV-strong element a) is
// genuinely necessary — recursion cannot simply be cut off.
//
// Paper erratum: the example's instance <a><b/><b/></a> is in fact directly
// valid (the (a|b) slot takes the first b), so it needs no recursive step.
// The smallest content that does is b, b, b, whose only extension nests one
// inserted <a>: <a><a><b/><b/></a><b/></a>. A depth-1 recognizer (nesting
// disabled) must reject it; depth 2 must accept.
func TestExample6RecursiveStep(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.T2), "a", Options{MaxDepth: 8})
	// The paper's literal instance: accepted, at every depth (it is valid).
	if !s.CheckContent("a", Elems("b", "b")) {
		t.Error("b, b must be accepted under T2")
	}
	if !s.NewRecognizerDepth("a", 1).Recognize(Elems("b", "b")) {
		t.Error("b, b is directly valid; even depth 1 must accept")
	}
	// The content that requires one recursive step.
	if !s.CheckContent("a", Elems("b", "b", "b")) {
		t.Error("b, b, b must be accepted under T2 with sufficient depth")
	}
	if s.NewRecognizerDepth("a", 1).Recognize(Elems("b", "b", "b")) {
		t.Error("with depth 1 the recursive step is unavailable; b, b, b must be rejected")
	}
	if !s.NewRecognizerDepth("a", 2).Recognize(Elems("b", "b", "b")) {
		t.Error("depth 2 allows the one recursive step Example 6 is about")
	}
}

// TestT2DepthLadder: each extra b under T2 requires one more level of
// inserted <a> wrappers, so acceptance of n+2 b's needs depth n+1 — the
// recognizer-depth/extension-depth correspondence of Section 4.3.1.
func TestT2DepthLadder(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.T2), "a", Options{MaxDepth: 8})
	for n := 2; n <= 5; n++ {
		bs := make([]Symbol, n)
		for i := range bs {
			bs[i] = Elem("b")
		}
		needed := n - 1 // depth needed: n-1 for n b's (n-2 recursive steps)
		if got := s.NewRecognizerDepth("a", needed).Recognize(bs); !got {
			t.Errorf("%d b's at depth %d: want accept", n, needed)
		}
		if n > 2 {
			if got := s.NewRecognizerDepth("a", needed-1).Recognize(bs); got {
				t.Errorf("%d b's at depth %d: want reject", n, needed-1)
			}
		}
	}
}

// TestEngagedNodeCannotSelfMatch is the regression test for the Figure 5
// line 29 soundness correction (the paper-literal side is
// TestNaiveUnsoundLine29): with
// <!ELEMENT a (b, c)> <!ELEMENT b (c)>, the content c, b of <a> has no
// insertion-only extension — the c precedes the b in document order, and
// insertions cannot reorder or lift content.
func TestEngagedNodeCannotSelfMatch(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b, c)> <!ELEMENT b (c)> <!ELEMENT c EMPTY>`)
	s := MustCompile(d, "a", Options{})
	if s.CheckContent("a", Elems("c", "b")) {
		t.Error("content c, b of <a> must be rejected (line 29 unsoundness)")
	}
	// Sanity: orders that do have extensions are accepted.
	if !s.CheckContent("a", Elems("c", "c")) {
		t.Error("c, c is potentially valid: <b><c/></b><c/>")
	}
	if !s.CheckContent("a", Elems("b", "c")) {
		t.Error("b, c is trivially potentially valid")
	}
}

// TestEngagedSelfMatchWhenModelAllowsTwo: with a model that has two b
// slots, the engaged-node correction must not over-reject: c, b extends to
// <b_ins><c/></b_ins><b_real/>.
func TestEngagedSelfMatchWhenModelAllowsTwo(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b, b)> <!ELEMENT b (c)> <!ELEMENT c EMPTY>`)
	s := MustCompile(d, "a", Options{})
	if !s.CheckContent("a", Elems("c", "b")) {
		t.Error("c, b must be accepted under a -> (b, b)")
	}
	if s.CheckContent("a", Elems("c", "b", "b")) {
		t.Error("c, b, b must be rejected: only two b slots")
	}
}

// TestGreedyDescendThenFallThrough: a symbol matched inside a hypothesized
// element, with later symbols falling through to the outer frontier —
// the b₁-closure behavior discussed around Example 4.
func TestGreedyDescendThenFallThrough(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b, c)> <!ELEMENT b (c, d)> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>`)
	s := MustCompile(d, "a", Options{})
	// c consumed inside hypothesized b; d likewise; then c at top level.
	if !s.CheckContent("a", Elems("c", "d", "c")) {
		t.Error("c, d, c must be accepted: <b><c/><d/></b><c/>")
	}
	// c inside b, then c at top level (b's d derives ε / is inserted).
	if !s.CheckContent("a", Elems("c", "c")) {
		t.Error("c, c must be accepted: <b><c/></b><c/>")
	}
	// d cannot be followed by c, d again: only one b slot and one top c.
	if s.CheckContent("a", Elems("c", "d", "c", "d")) {
		t.Error("c, d, c, d must be rejected")
	}
}

// TestEngagedDoesNotShadowFreshPosition is the regression test for a
// completeness bug the X2 benchmark exposed: [b, σ, e, d] under the
// Figure 1 DTD is potentially valid (σ and e sit inside an inserted <f>, or
// σ inside an inserted <c> — and the e plus following real d then require
// the alternative where the hypothesized d is NOT consumed). An engaged
// active entry for a DAG node must not prevent a sibling path from reaching
// the same node as a fresh position.
func TestEngagedDoesNotShadowFreshPosition(t *testing.T) {
	s := figure1Schema(t)
	if !s.CheckContent("a", []Symbol{Elem("b"), Sigma, Elem("e"), Elem("d")}) {
		t.Error("[b, σ, e, d] must be accepted: <b/><f><c>σ</c><e/></f><d/>")
	}
	// And the soundness direction still holds: consuming inside a
	// hypothesized d and then seeing the real d is only acceptable because
	// of the f alternative; without f-like cover it must reject.
	d := dtd.MustParse(`<!ELEMENT a (b, d)> <!ELEMENT b EMPTY> <!ELEMENT d (#PCDATA | e)*> <!ELEMENT e EMPTY>`)
	s2 := MustCompile(d, "a", Options{})
	if !s2.CheckContent("a", []Symbol{Elem("b"), Elem("e"), Elem("d")}) {
		// e inside inserted d? then real d follows — but wait, TWO d's
		// cannot fit (b, d). Re-deriving: e must sit inside the single d
		// slot, and then the real <d> has no slot left: not PV.
		t.Log("[b, e, d] verdict: reject (single d slot)")
	} else {
		t.Error("[b, e, d] with a single d slot must be rejected")
	}
}

func TestEmptyElementContent(t *testing.T) {
	s := figure1Schema(t)
	if !s.CheckContent("e", nil) {
		t.Error("EMPTY element with no content is fine")
	}
	if s.CheckContent("e", Elems("b")) {
		t.Error("EMPTY element must reject any child")
	}
	if s.CheckContent("e", []Symbol{Sigma}) {
		t.Error("EMPTY element must reject text")
	}
}

func TestEveryContentAcceptsEmpty(t *testing.T) {
	// Theorem 3: every nonterminal derives ε, so the empty content is
	// potentially valid for every element.
	s := figure1Schema(t)
	for _, name := range s.DTD.Order {
		if !s.CheckContent(name, nil) {
			t.Errorf("empty content of <%s> must be potentially valid", name)
		}
	}
}

func TestSigmaPlacement(t *testing.T) {
	s := figure1Schema(t)
	// σ under a: a ⇝ c ⇝ PCDATA, accepted via a hypothesized c (or d).
	if !s.CheckContent("a", []Symbol{Sigma}) {
		t.Error("σ under <a> must be accepted")
	}
	// σ under e (EMPTY): rejected.
	if s.CheckContent("e", []Symbol{Sigma}) {
		t.Error("σ under <e> must be rejected")
	}
	// σ under c (PCDATA): accepted directly.
	if !s.CheckContent("c", []Symbol{Sigma}) {
		t.Error("σ under <c> must be accepted")
	}
}

func TestAnyContent(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (x)> <!ELEMENT x ANY> <!ELEMENT y EMPTY>`)
	s := MustCompile(d, "r", Options{})
	if !s.CheckContent("x", []Symbol{Elem("y"), Sigma, Elem("x"), Elem("r")}) {
		t.Error("ANY content accepts any declared elements and text")
	}
	if s.CheckContent("x", Elems("ghost")) {
		t.Error("ANY content must reject undeclared elements")
	}
}

func TestUndeclaredSymbolRejected(t *testing.T) {
	s := figure1Schema(t)
	if s.CheckContent("a", Elems("ghost")) {
		t.Error("undeclared element must be rejected")
	}
}

func TestWeakRecursionNoNesting(t *testing.T) {
	// PV-weak DTD: arbitrarily deep symbol nesting is resolved through
	// star-group reachability; everything under p accepts.
	s := MustCompile(dtd.MustParse(dtd.WeakRecursive), "p", Options{})
	if s.Class() != reach.PVWeakRecursive {
		t.Fatal("WeakRecursive fixture must be PV-weak")
	}
	if !s.CheckContent("p", []Symbol{Sigma, Elem("b"), Elem("i"), Sigma, Elem("tt"), Elem("b")}) {
		t.Error("mixed inline content must be accepted")
	}
	if !s.CheckContent("tt", []Symbol{Sigma}) {
		t.Error("tt holds text")
	}
	if s.CheckContent("tt", Elems("b")) {
		t.Error("tt -> (#PCDATA) must reject element children")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(dtd.MustParse(dtd.Figure1), "ghost", Options{}); err == nil {
		t.Error("undeclared root must fail compilation")
	}
	if _, err := Compile(dtd.MustParse(`<!ELEMENT a (missing)>`), "a", Options{}); err == nil {
		t.Error("undeclared reference must fail compilation")
	}
	if _, err := Compile(dtd.MustParse(`<!ELEMENT a (x?)> <!ELEMENT x (x)>`), "a", Options{}); err == nil {
		t.Error("unproductive element must fail compilation (usability assumption)")
	}
}

func TestRecognizeStopsAtFirstReject(t *testing.T) {
	s := figure1Schema(t)
	r := s.NewRecognizer("e")
	if r.Recognize([]Symbol{Elem("b"), Elem("c")}) {
		t.Error("must reject")
	}
}

// TestStarGroupOrderIndependence: Proposition 2(2) — a star-group matches
// symbols reachable from its members in any order, because each repetition
// can host a fresh hypothesized wrapper.
func TestStarGroupOrderIndependence(t *testing.T) {
	d := dtd.MustParse(`
		<!ELEMENT root (y*)>
		<!ELEMENT y (c, d)>
		<!ELEMENT c EMPTY>
		<!ELEMENT d EMPTY>
	`)
	s := MustCompile(d, "root", Options{})
	// d before c: impossible inside a single y, but fine across two y's.
	if !s.CheckContent("root", Elems("d", "c")) {
		t.Error("d, c must be accepted: <y><d/>(c inserted)</y><y><c/>...</y>")
	}
	if !s.CheckContent("root", Elems("d", "d", "c", "c")) {
		t.Error("any order works inside a star-group")
	}
}
