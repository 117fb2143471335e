package dom

import (
	"strings"
	"testing"
)

// Example 1's two encodings (Figure 2 shows their DOM trees).
const (
	exampleW = `<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>`
	exampleS = `<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`
)

func TestParseExample1Trees(t *testing.T) {
	// Figure 2: both trees have root r with one child a; w's a has children
	// b, e, c, text; s's a has children b, c, text, e.
	w := MustParse(exampleW)
	if w.Root.Name != "r" || len(w.Root.Children) != 1 {
		t.Fatalf("w root structure wrong: %s", w.Root)
	}
	a := w.Root.Children[0]
	gotKinds := childSummary(a)
	if gotKinds != "b e c #text" {
		t.Errorf("w children of a = %q, want %q", gotKinds, "b e c #text")
	}

	s := MustParse(exampleS)
	a = s.Root.Children[0]
	if got := childSummary(a); got != "b c #text e" {
		t.Errorf("s children of a = %q, want %q", got, "b c #text e")
	}
}

func childSummary(n *Node) string {
	var parts []string
	for _, c := range n.Children {
		if c.Kind == TextNode {
			parts = append(parts, "#text")
		} else {
			parts = append(parts, c.Name)
		}
	}
	return strings.Join(parts, " ")
}

func TestContentOperator(t *testing.T) {
	// content(w) must be the phrase regardless of markup (Section 2).
	want := "A quick brown fox jumps over a lazy dog"
	for _, src := range []string{exampleW, exampleS} {
		doc := MustParse(src)
		if got := doc.Root.Content(); got != want {
			t.Errorf("content(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestElementNames(t *testing.T) {
	doc := MustParse(exampleW)
	names := doc.Root.ElementNames()
	for _, n := range []string{"r", "a", "b", "c", "e"} {
		if !names[n] {
			t.Errorf("elements(w) missing %q", n)
		}
	}
	if names["d"] {
		t.Error("elements(w) must not contain d")
	}
}

// TestSerializationRoundTrip re-parses serialized trees, attribute values
// included: backslashes, quotes, markup characters, control characters
// and whitespace that a parser would otherwise normalize must all read
// back as the same value.
func TestSerializationRoundTrip(t *testing.T) {
	for _, src := range []string{
		exampleW, exampleS, `<a><b>x &amp; y</b><c/></a>`,
		`<a x="c:\dir" y="tab&#9;lf&#10;cr&#13;end" z="&#1;&#x7f;"><b/></a>`,
		`<a x='say "hi" &amp; &lt;bye&gt;' y="it's \n\t\\"></a>`,
		`<a x="" y="é – ✓"/>`,
	} {
		doc := MustParse(src)
		re, err := Parse(doc.Root.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", doc.Root.String(), err)
		}
		if !doc.Root.Equal(re.Root) {
			t.Errorf("round trip changed tree:\n%s\n%s", doc.Root, re.Root)
		}
		if again := re.Root.String(); again != doc.Root.String() {
			t.Errorf("second round trip changed the serialization:\n%s\n%s", doc.Root, again)
		}
	}
	doc := MustParse(`<a x="c:\dir" y='q"&#9;&#10;&#13;&amp;&lt;'></a>`)
	if got, want := doc.Root.String(), `<a x="c:\dir" y="q&quot;&#9;&#10;&#13;&amp;&lt;"></a>`; got != want {
		t.Errorf("attribute serialization = %s\nwant                      %s", got, want)
	}
}

func TestWellFormednessErrors(t *testing.T) {
	cases := []string{
		`<a><b></a></b>`, // mismatched nesting
		`<a>`,            // unclosed
		`</a>`,           // close without open
		`<a></a><b></b>`, // two roots
		`text<a></a>`,    // data before root
		``,               // no root
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestCommentsOutsideRootPreserved(t *testing.T) {
	doc := MustParse(`<!-- head --><a></a><!-- tail -->`)
	if len(doc.Prolog) != 1 || len(doc.Epilog) != 1 {
		t.Fatalf("prolog/epilog = %d/%d", len(doc.Prolog), len(doc.Epilog))
	}
	if !strings.Contains(doc.String(), "<!-- head --><a></a><!-- tail -->") {
		t.Errorf("document serialization = %q", doc.String())
	}
}

func TestDepth(t *testing.T) {
	doc := MustParse(`<a><b><c>x</c></b><d></d></a>`)
	if got := doc.Root.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	leaf := MustParse(`<a>text</a>`)
	if got := leaf.Root.Depth(); got != 1 {
		t.Errorf("Depth = %d, want 1", got)
	}
}

func TestWrapChildren(t *testing.T) {
	// Figure 3: wrapping to obtain the valid extension. Start from s and
	// wrap b's text in d, and the trailing "dog"+<e> in d.
	doc := MustParse(exampleS)
	a := doc.Root.Children[0]
	b := a.Children[0]
	b.WrapChildren(0, 1, "d")
	a.WrapChildren(2, 4, "d")
	want := `<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>`
	if got := doc.Root.String(); got != want {
		t.Errorf("wrapped = %q\nwant      %q", got, want)
	}
	if err := doc.Root.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWrapEmptyRange(t *testing.T) {
	doc := MustParse(`<a><b></b></a>`)
	a := doc.Root
	a.WrapChildren(1, 1, "c") // insert empty <c> after <b>
	if got := a.String(); got != `<a><b></b><c></c></a>` {
		t.Errorf("got %q", got)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

func TestUnwrap(t *testing.T) {
	// Unwrap is the markup-deletion of Theorem 2: children splice in place.
	doc := MustParse(`<a><b>x<c>y</c></b>z</a>`)
	b := doc.Root.Children[0]
	b.Unwrap()
	if got := doc.Root.String(); got != `<a>x<c>y</c>z</a>` {
		t.Errorf("after unwrap: %q", got)
	}
	if err := doc.Root.Validate(); err != nil {
		t.Error(err)
	}
}

func TestUnwrapThenWrapInverse(t *testing.T) {
	src := `<a><b><c>x</c>y</b><d>z</d></a>`
	doc := MustParse(src)
	b := doc.Root.Children[0]
	nChildren := len(b.Children)
	b.Unwrap()
	reborn := doc.Root.WrapChildren(0, nChildren, "b")
	if doc.Root.String() != src {
		t.Errorf("wrap∘unwrap is not identity: %q", doc.Root.String())
	}
	if reborn.Parent != doc.Root {
		t.Error("parent pointer broken")
	}
}

func TestInsertAndRemoveChild(t *testing.T) {
	doc := MustParse(`<a><b></b><d></d></a>`)
	doc.Root.InsertChild(1, NewElement("c"))
	if got := childSummary(doc.Root); got != "b c d" {
		t.Errorf("after insert: %q", got)
	}
	removed := doc.Root.RemoveChildAt(0)
	if removed.Name != "b" || removed.Parent != nil {
		t.Errorf("removed = %v parent=%v", removed.Name, removed.Parent)
	}
	if got := childSummary(doc.Root); got != "c d" {
		t.Errorf("after remove: %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	doc := MustParse(exampleW)
	clone := doc.Root.Clone()
	if !doc.Root.Equal(clone) {
		t.Fatal("clone differs")
	}
	clone.Children[0].Children[0].Data = "mutated"
	clone.Children[0].Name = "zzz"
	if !doc.Root.Equal(MustParse(exampleW).Root) {
		t.Error("mutating clone affected original")
	}
}

func TestCountNodes(t *testing.T) {
	doc := MustParse(`<a><b>x</b><c></c>y</a>`)
	// elements a,b,c + texts x,y = 5
	if got := doc.Root.CountNodes(); got != 5 {
		t.Errorf("CountNodes = %d, want 5", got)
	}
}

func TestMergeAdjacentText(t *testing.T) {
	// Entity boundaries split text during lexing; the DOM must re-merge so
	// δ_T sees a single character-data run.
	doc := MustParse(`<a>one &amp; two</a>`)
	if len(doc.Root.Children) != 1 {
		t.Fatalf("want 1 merged text child, got %d", len(doc.Root.Children))
	}
	if doc.Root.Children[0].Data != "one & two" {
		t.Errorf("text = %q", doc.Root.Children[0].Data)
	}
}

func TestSelfClosingEqualsEmptyPair(t *testing.T) {
	a := MustParse(`<a><e/></a>`)
	b := MustParse(`<a><e></e></a>`)
	if !a.Root.Equal(b.Root) {
		t.Error("<e/> and <e></e> must parse identically (δ_T treats them alike)")
	}
}
