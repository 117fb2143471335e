package complete

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
)

func fig1Completer(t *testing.T) (*Completer, *validator.Validator) {
	t.Helper()
	d := dtd.MustParse(dtd.Figure1)
	return New(core.MustCompile(d, "r", core.Options{})), validator.MustNew(d, "r")
}

func TestCompleteFigure3(t *testing.T) {
	// The paper's Figure 3: completing Example 1's s requires exactly two
	// <d> insertions.
	c, v := fig1Completer(t)
	doc := dom.MustParse(`<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`)
	ext, inserted, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatalf("completion not valid: %v\n%s", err, ext)
	}
	if ext.Content() != doc.Root.Content() {
		t.Errorf("completion changed character data: %q", ext.Content())
	}
	if inserted != 2 {
		t.Errorf("inserted %d elements, Figure 3 needs 2", inserted)
	}
	want := `<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>`
	if got := ext.String(); got != want {
		t.Errorf("completion = %s\nwant         %s", got, want)
	}
}

func TestCompleteRejectsNonPV(t *testing.T) {
	c, _ := fig1Completer(t)
	doc := dom.MustParse(`<r><a><b>x</b><e></e><c>y</c> z</a></r>`) // Example 1's w
	if _, _, err := c.Complete(doc.Root); err == nil {
		t.Error("completing a non-PV document must fail")
	}
}

func TestCompleteValidIsIdentity(t *testing.T) {
	c, v := fig1Completer(t)
	src := `<r><a><b><d>x</d></b><c>y</c><d>z<e></e></d></a></r>`
	doc := dom.MustParse(src)
	ext, inserted, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 0 {
		t.Errorf("valid document needed %d insertions", inserted)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatal(err)
	}
	if ext.String() != src {
		t.Errorf("identity completion changed the document: %s", ext)
	}
}

func TestCompleteEmptyRoot(t *testing.T) {
	// <r></r> with r -> (a+): completion must synthesize a minimal <a>
	// subtree: a -> (b?, (c|f), d) minimal = <a><c></c><d></d></a>.
	c, v := fig1Completer(t)
	doc := dom.MustParse(`<r></r>`)
	ext, inserted, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatalf("completion not valid: %v\n%s", err, ext)
	}
	if inserted < 3 {
		t.Errorf("expected at least <a><c/><d/> synthesized, inserted=%d", inserted)
	}
	if got := ext.String(); got != `<r><a><c></c><d></d></a></r>` {
		t.Errorf("minimal completion = %s", got)
	}
}

func TestCompleteMandatorySibling(t *testing.T) {
	// f -> (c, e): a lone <e> inside f needs a synthesized <c> BEFORE it.
	c, v := fig1Completer(t)
	doc := dom.MustParse(`<r><a><f><e></e></f><d></d></a></r>`)
	ext, _, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatalf("completion not valid: %v\n%s", err, ext)
	}
	if got := ext.String(); got != `<r><a><f><c></c><e></e></f><d></d></a></r>` {
		t.Errorf("completion = %s", got)
	}
}

func TestCompleteDeepWrapping(t *testing.T) {
	// A bare <e> under <a> must end up inside an inserted d (or b/f chain).
	c, v := fig1Completer(t)
	doc := dom.MustParse(`<r><a><e></e></a></r>`)
	ext, _, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatalf("completion not valid: %v\n%s", err, ext)
	}
	if ext.Content() != "" {
		t.Errorf("content changed: %q", ext.Content())
	}
}

func TestCompleteTextInElementContent(t *testing.T) {
	// Loose text under <r> (element content!) must be wrapped down to a
	// PCDATA-capable element.
	c, v := fig1Completer(t)
	doc := dom.MustParse(`<r>loose text</r>`)
	ext, _, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatalf("completion not valid: %v\n%s", err, ext)
	}
	if ext.Content() != "loose text" {
		t.Errorf("content changed: %q", ext.Content())
	}
}

func TestCompletePreservesComments(t *testing.T) {
	c, v := fig1Completer(t)
	doc := dom.MustParse(`<r><!-- head --><a><c>x</c><!-- mid --><d></d></a></r>`)
	ext, _, err := c.Complete(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(ext); err != nil {
		t.Fatal(err)
	}
	s := ext.String()
	for _, want := range []string{"<!-- head -->", "<!-- mid -->"} {
		if !contains(s, want) {
			t.Errorf("completion lost %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// checkExtension completes doc and asserts the completion oracle: the
// completion succeeds, validates, keeps the tree invariants, and is an
// extension of doc — unwrapping the inserted elements in reverse creation
// order gives back doc's serialization byte for byte. An input the
// validator accepts must come back unchanged: zero insertions, its own
// serialization, and CompleteInPlace reporting it valid.
func checkExtension(t *testing.T, c *Completer, val *validator.Validator, label string, doc *dom.Node) {
	t.Helper()
	in := doc.String()
	ext, inserted, err := c.CompleteTracked(doc)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, in)
	}
	if got := doc.String(); got != in {
		t.Errorf("%s: CompleteTracked changed its input to\n%s\nfrom\n%s", label, got, in)
	}
	wasValid := val.Validate(doc) == nil
	if wasValid && (len(inserted) != 0 || ext.String() != in) {
		t.Errorf("%s: a valid input took %d insertions:\n%s\ncompleted:\n%s", label, len(inserted), in, ext)
	}
	// Completing a private copy in place gives the same extension.
	own := doc.Clone()
	if nodes, valid, err := c.CompleteInPlace(own); err != nil || len(nodes) != len(inserted) || own.String() != ext.String() {
		t.Errorf("%s: CompleteInPlace gives %d insertions, %v:\n%s\nCompleteTracked %d:\n%s", label, len(nodes), err, own, len(inserted), ext)
	} else if valid != wasValid {
		t.Errorf("%s: CompleteInPlace reports valid=%t, the validator %t", label, valid, wasValid)
	} else if err := own.Validate(); err != nil {
		t.Errorf("%s: tree invariants after CompleteInPlace: %v", label, err)
	}
	if err := val.Validate(ext); err != nil {
		t.Errorf("%s: completion invalid: %v\noriginal: %s\ncompleted: %s", label, err, in, ext)
	}
	if err := ext.Validate(); err != nil {
		t.Errorf("%s: tree invariants: %v", label, err)
	}
	for k := len(inserted) - 1; k >= 0; k-- {
		inserted[k].Unwrap()
	}
	if got := ext.String(); got != in {
		t.Errorf("%s: unwrapping the %d inserted elements gives\n%s\nnot the input\n%s", label, len(inserted), got, in)
	}
}

// TestCompleteStrippedCorpus is the system-level property: every
// stripped-valid document (potentially valid by Theorem 2) passes the
// completion oracle (checkExtension). The documents carry no comments,
// PIs or whitespace in element content. The random DTDs cover all three
// recursion classes; their documents reach depth 6 with up to three
// repetitions, sizes whose completion used to take seconds.
func TestCompleteStrippedCorpus(t *testing.T) {
	fixtures := []struct {
		src, root string
		opts      gen.DocOptions
	}{
		{dtd.Figure1, "r", gen.DocOptions{MaxDepth: 8}},
		{dtd.Play, "play", gen.DocOptions{MaxDepth: 8}},
		{dtd.Article, "article", gen.DocOptions{MaxDepth: 8}},
		{dtd.TEILite, "TEI", gen.DocOptions{MaxDepth: 6, MaxRepeat: 3}},
	}
	for _, fix := range fixtures {
		d := dtd.MustParse(fix.src)
		comp := New(core.MustCompile(d, fix.root, core.Options{}))
		val := validator.MustNew(d, fix.root)
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			doc := gen.GenValid(rng, d, fix.root, fix.opts)
			gen.Strip(rng, doc, 0.5)
			checkExtension(t, comp, val, fmt.Sprintf("%s seed %d", fix.root, seed), doc)
		}
	}
	for class := gen.ClassNonRecursive; class <= gen.ClassStrong; class++ {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(class)))
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 6 + int(seed%6), Class: class})
			comp := New(core.MustCompile(d, "e0", core.Options{MaxDepth: 6}))
			val := validator.MustNew(d, "e0")
			for _, opts := range []gen.DocOptions{{MaxDepth: 5, MaxRepeat: 2}, {MaxDepth: 6, MaxRepeat: 3}} {
				for k, src := range strippedDocs(rng, d, "e0", 6, opts, []float64{0.4, 0.7}, false) {
					label := fmt.Sprintf("class %d seed %d depth %d doc %d", class, seed, opts.MaxDepth, k)
					checkExtension(t, comp, val, label, dom.MustParse(src).Root)
				}
			}
		}
	}
}

// TestCompleteStarGroupChain covers a node the checker accepts only
// because a star group takes any symbol reachable from its members at no
// depth cost (Proposition 2(2)): text under <r> needs four nested wrappers,
// twice the schema's depth bound of 2.
func TestCompleteStarGroupChain(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (a)*> <!ELEMENT a (b)*> <!ELEMENT b (c)*> <!ELEMENT c (d)*> <!ELEMENT d (#PCDATA)>`)
	schema := core.MustCompile(d, "r", core.Options{})
	if schema.EffectiveDepth() != 2 {
		t.Fatalf("depth bound %d, want 2", schema.EffectiveDepth())
	}
	ext, _, err := New(schema).Complete(dom.MustParse(`<r>text</r>`).Root)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ext.String(), `<r><a><b><c><d>text</d></c></b></a></r>`; got != want {
		t.Errorf("completion = %s\nwant         %s", got, want)
	}
}

// TestCompleteRecursive exercises the depth-bounded host recursion on the
// PV-strong T2: n b's complete into the nested-<a> tower.
func TestCompleteRecursive(t *testing.T) {
	d := dtd.MustParse(dtd.T2)
	schema := core.MustCompile(d, "a", core.Options{MaxDepth: 10})
	comp := New(schema)
	val := validator.MustNew(d, "a")
	for _, n := range []int{2, 3, 4, 5} {
		doc := dom.NewElement("a")
		for i := 0; i < n; i++ {
			doc.Append(dom.NewElement("b"))
		}
		ext, _, err := comp.Complete(doc)
		if err != nil {
			t.Fatalf("%d b's: %v", n, err)
		}
		if err := val.Validate(ext); err != nil {
			t.Errorf("%d b's: completion invalid: %v\n%s", n, err, ext)
		}
	}
}

// TestCompleteAlreadyValidIdentity is the regression test for the
// completion identity: completing an already-valid document inserts
// nothing and serializes byte-identically to the input tree. The engine's
// already-valid fast path and the /complete endpoints rely on this
// equivalence.
func TestCompleteAlreadyValidIdentity(t *testing.T) {
	for _, fix := range []struct{ src, root string }{
		{dtd.Figure1, "r"},
		{dtd.Play, "play"},
		{dtd.WeakRecursive, "p"},
		{dtd.TEILite, "TEI"},
	} {
		d := dtd.MustParse(fix.src)
		schema := core.MustCompile(d, fix.root, core.Options{})
		comp := New(schema)
		val := validator.MustNew(d, fix.root)
		for trial := 0; trial < 100; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*31 + 1))
			doc := gen.GenValid(rng, d, fix.root, gen.DocOptions{MaxDepth: 7, MaxRepeat: 3})
			if err := val.Validate(doc); err != nil {
				t.Fatalf("%s trial %d: generator emitted invalid doc: %v", fix.root, trial, err)
			}
			before := doc.String()
			ext, inserted, err := comp.Complete(doc)
			if err != nil {
				t.Fatalf("%s trial %d: %v", fix.root, trial, err)
			}
			if inserted != 0 {
				t.Errorf("%s trial %d: inserted %d elements into a valid document", fix.root, trial, inserted)
			}
			if got := ext.String(); got != before {
				t.Errorf("%s trial %d: serialization changed\n before: %.300s\n after:  %.300s",
					fix.root, trial, before, got)
			}
			if doc.String() != before {
				t.Errorf("%s trial %d: Complete mutated its input", fix.root, trial)
			}
		}
	}
}
