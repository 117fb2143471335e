package core

import (
	"strings"
	"testing"

	"repro/internal/dom"
)

func TestStreamMatchesDocumentCheck(t *testing.T) {
	s := figure1Schema(t)
	cases := []struct {
		src  string
		want bool // potentially valid?
	}{
		{exampleW, false},
		{exampleS, true},
		{exampleExt, true},
		{`<r></r>`, true},
		{`<r><a></a></r>`, true},
		{`<r><a><e></e><e></e></a></r>`, true},                 // one inserted <d> wraps both e's
		{`<r><a><e></e><c>x</c></a></r>`, true},                // e hides in an inserted <b><d>…
		{`<r><a><b><d></d></b><e></e><c>x</c></a></r>`, false}, // …but not after a real <b>
		{`<r><a><c>x</c><d>y<e></e></d></a></r>`, true},
		{`<r><a><f><e></e><c>x</c></f></b></a></r>`, false}, // also ill-formed
	}
	for _, c := range cases {
		streamErr := s.CheckStream(c.src)
		if (streamErr == nil) != c.want {
			t.Errorf("CheckStream(%q) err=%v, want ok=%v", c.src, streamErr, c.want)
		}
		// Cross-check against the tree-based checker when well-formed.
		if doc, err := dom.Parse(c.src); err == nil {
			v := s.CheckDocument(doc.Root)
			if (v == nil) != (streamErr == nil) {
				t.Errorf("stream/tree disagree on %q: stream=%v tree=%v", c.src, streamErr, v)
			}
		}
	}
}

func TestStreamEventAPI(t *testing.T) {
	s := figure1Schema(t)
	c := s.NewStreamChecker()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.StartElement([]byte("r")))
	must(c.StartElement([]byte("a")))
	must(c.StartElement([]byte("b")))
	must(c.Text([]byte("A quick brown")))
	must(c.EndElement([]byte("b")))
	must(c.StartElement([]byte("c")))
	must(c.Text([]byte(" fox jumps over a lazy")))
	must(c.EndElement([]byte("c")))
	must(c.Text([]byte(" dog")))
	must(c.StartElement([]byte("e")))
	must(c.EndElement([]byte("e")))
	must(c.EndElement([]byte("a")))
	must(c.EndElement([]byte("r")))
	must(c.Close())
}

func TestStreamRejectsEarly(t *testing.T) {
	// The stream checker reports the violation at the offending start tag,
	// before the document is complete — the editor-feedback property.
	s := figure1Schema(t)
	c := s.NewStreamChecker()
	if err := c.StartElement([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := c.StartElement([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.StartElement([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.EndElement([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.StartElement([]byte("e")); err != nil {
		t.Fatal(err)
	}
	if err := c.EndElement([]byte("e")); err != nil {
		t.Fatal(err)
	}
	// <c> after <e> violates a's model immediately.
	if err := c.StartElement([]byte("c")); err == nil {
		t.Error("expected violation at <c>")
	}
	// The checker stays failed.
	if err := c.Close(); err == nil {
		t.Error("Close must report the sticky error")
	}
}

func TestStreamAdjacentTextCollapses(t *testing.T) {
	s := figure1Schema(t)
	c := s.NewStreamChecker()
	for _, call := range []func() error{
		func() error { return c.StartElement([]byte("r")) },
		func() error { return c.StartElement([]byte("a")) },
		func() error { return c.StartElement([]byte("c")) },
		func() error { return c.Text([]byte("one ")) },
		func() error { return c.Text([]byte("two")) }, // same σ
		func() error { return c.EndElement([]byte("c")) },
		func() error { return c.StartElement([]byte("d")) },
		func() error { return c.EndElement([]byte("d")) },
		func() error { return c.EndElement([]byte("a")) },
		func() error { return c.EndElement([]byte("r")) },
	} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

func TestStreamWellFormedness(t *testing.T) {
	s := figure1Schema(t)
	cases := []string{
		`<r><a></r>`,             // mismatched end
		`<r></r><r></r>`,         // two roots
		`<a></a>`,                // wrong root
		`<r></r>trailing`,        // data after root
		`<r><ghost></ghost></r>`, // undeclared (also a content violation)
	}
	for _, src := range cases {
		if err := s.CheckStream(src); err == nil {
			t.Errorf("CheckStream(%q): expected error", src)
		}
	}
	if err := s.CheckStream(`<r>`); err == nil {
		t.Error("unclosed root must fail at Close")
	}
}

func TestStreamDepthTracking(t *testing.T) {
	s := figure1Schema(t)
	c := s.NewStreamChecker()
	c.StartElement([]byte("r"))
	c.StartElement([]byte("a"))
	if c.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", c.Depth())
	}
	c.EndElement([]byte("a"))
	c.EndElement([]byte("r"))
	if c.Depth() != 0 {
		t.Errorf("Depth = %d, want 0", c.Depth())
	}
}

func TestStreamErrorMessages(t *testing.T) {
	s := figure1Schema(t)
	err := s.CheckStream(`<r><a><b></b><e></e><c></c></a></r>`)
	if err == nil || !strings.Contains(err.Error(), "<a>") {
		t.Errorf("error should name the failing parent: %v", err)
	}
}
