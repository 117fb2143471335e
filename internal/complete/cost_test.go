package complete

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
)

// workFor completes src and returns the completion, its inserted count and
// its work count (DP states plus sweep steps).
func workFor(t *testing.T, c *Completer, src string) (out *dom.Node, inserted, work int) {
	t.Helper()
	before := c.work
	out, inserted, err := c.Complete(dom.MustParse(src).Root)
	if err != nil {
		t.Fatal(err)
	}
	return out, inserted, c.work - before
}

// TestCompleteCostQuadratic pins completion's cost to at most quadratic
// growth in a node's item count: doubling the children of the root at most
// quadruples the work. The first DTD can only pair its <x>s into inserted
// <w>s; the second is recursive, and every <c> fits into either inserted
// host at every depth.
func TestCompleteCostQuadratic(t *testing.T) {
	for _, tc := range []struct {
		name, src, root, child string
	}{
		{"pairs", "<!ELEMENT t (w*)> <!ELEMENT w (x, x)> <!ELEMENT x EMPTY>", "t", "x"},
		{"recursive", "<!ELEMENT t (a|b)*> <!ELEMENT a (b|c)*> <!ELEMENT b (a|c)*> <!ELEMENT c EMPTY>", "t", "c"},
	} {
		c := New(core.MustCompile(dtd.MustParse(tc.src), tc.root, core.Options{}))
		child := func(int) string { return tc.child }
		prev := 0
		for n := 25; n <= 400; n *= 2 {
			_, _, work := workFor(t, c, children(tc.root, n, child))
			if prev > 0 && work > 4*prev {
				t.Errorf("%s: %d children cost %d work units, more than 4× the %d of %d children", tc.name, n, work, prev, n/2)
			}
			prev = work
		}
	}
}

// TestCompleteCostFoundDocument pins a 9,267-byte stripped document whose
// root holds 166 items under a weak-recursive random DTD. Asking every
// range end of every host once took seconds on it; the H table completes
// it with the same 527 insertions in a bounded amount of work.
func TestCompleteCostFoundDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(17*31 + 1))
	d := gen.RandDTD(rng, gen.DTDOptions{Elements: 11, Class: gen.ClassWeak})
	schema, err := core.Compile(d, "e0", core.Options{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	src := strippedDocs(rng, d, "e0", 8, gen.DocOptions{MaxDepth: 6, MaxRepeat: 3}, []float64{0.4, 0.7}, false)[5]
	if len(src) != 9267 {
		t.Fatalf("the document has %d bytes, want 9267: the generator changed", len(src))
	}
	out, inserted, work := workFor(t, New(schema), src)
	if inserted != 527 {
		t.Errorf("inserted %d elements, want 527", inserted)
	}
	const maxWork = 40000
	if work > maxWork {
		t.Errorf("completion took %d work units, want at most %d", work, maxWork)
	}
	if err := validator.MustNew(d, "e0").Validate(out); err != nil {
		t.Errorf("completion invalid: %v", err)
	}
}
