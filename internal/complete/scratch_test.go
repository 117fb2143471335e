package complete

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
)

// scratchDTD declares <s>, whose 302-position model gives 250 children a
// memo table of 302·251 entries (the required <z> makes them invalid, so
// the DP runs), and <u>, whose <x> children can only go into an inserted
// <v>: sweeping v's model asks for H(y_k, i, ·) of all 100 <y_k>s at every
// item, which fills 100 rows of the H table.
func scratchDTD() *dtd.DTD {
	var b strings.Builder
	b.WriteString("<!ELEMENT s (")
	for k := 1; k <= 300; k++ {
		fmt.Fprintf(&b, "a%d?, ", k)
	}
	b.WriteString("z)>\n<!ELEMENT z EMPTY>\n")
	for k := 1; k <= 300; k++ {
		fmt.Fprintf(&b, "<!ELEMENT a%d EMPTY>\n", k)
	}
	b.WriteString("<!ELEMENT u (v*)>\n<!ELEMENT v (x")
	for k := 1; k <= 100; k++ {
		fmt.Fprintf(&b, " | y%d", k)
	}
	b.WriteString(")*>\n<!ELEMENT x EMPTY>\n")
	for k := 1; k <= 100; k++ {
		fmt.Fprintf(&b, "<!ELEMENT y%d (x)>\n", k)
	}
	return dtd.MustParse(b.String())
}

// children returns <root> holding n children named by name(k).
func children(root string, n int, name func(k int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%s>", root)
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&b, "<%s/>", name(k))
	}
	fmt.Fprintf(&b, "</%s>", root)
	return b.String()
}

// TestScratchRetentionBounds completes an arrangement that grows the memo
// arena past maxRetainedMemo and one that grows the H table past
// maxRetainedEnds, each followed by a small document on the same
// Completer. The oversized scratch must be dropped, every completion must
// equal a fresh Completer's, and no completed document may stay reachable
// through the Completer's item buffer.
func TestScratchRetentionBounds(t *testing.T) {
	d := scratchDTD()
	run := func(c *Completer, src string) {
		t.Helper()
		complete := func(c *Completer) string {
			out, _, err := c.Complete(dom.MustParse(src).Root)
			if err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		if got, want := complete(c), complete(New(c.schema)); got != want {
			t.Fatalf("reused Completer gives %s\nfresh one gives %s", got, want)
		}
		for _, it := range c.items[:cap(c.items)] {
			if it != nil {
				t.Fatalf("the Completer still references a completed <%s>", it.Name)
			}
		}
	}
	a := func(k int) string { return fmt.Sprintf("a%d", k) }
	x := func(int) string { return "x" }

	s := New(core.MustCompile(d, "s", core.Options{}))
	run(s, children("s", 250, a))
	if len(s.arena) <= maxRetainedMemo {
		t.Fatalf("250 children of <s> grew the arena to %d entries, want past %d", len(s.arena), maxRetainedMemo)
	}
	run(s, children("s", 3, a))
	if len(s.arena) > maxRetainedMemo {
		t.Errorf("after a small document the arena keeps %d entries, want at most %d", len(s.arena), maxRetainedMemo)
	}

	v := New(core.MustCompile(d, "u", core.Options{}))
	run(v, children("u", 700, x))
	if len(v.ends) <= maxRetainedEnds {
		t.Fatalf("700 children of <u> grew the H table to %d entries, want past %d", len(v.ends), maxRetainedEnds)
	}
	run(v, children("u", 4, x))
	if len(v.ends) > maxRetainedEnds {
		t.Errorf("after a small document the H table keeps %d entries, want at most %d", len(v.ends), maxRetainedEnds)
	}
}
