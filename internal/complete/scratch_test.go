package complete

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
)

// scratchDTD declares <s>, whose 301-position model gives 250 children a
// memo table of 301·251 entries, and <t>, whose <x> children can only be
// paired into inserted <w>s, so that canHost is asked about every range.
func scratchDTD() *dtd.DTD {
	var b strings.Builder
	b.WriteString("<!ELEMENT s (")
	for k := 1; k <= 300; k++ {
		if k > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "a%d?", k)
	}
	b.WriteString(")>\n")
	for k := 1; k <= 300; k++ {
		fmt.Fprintf(&b, "<!ELEMENT a%d EMPTY>\n", k)
	}
	b.WriteString("<!ELEMENT t (w*)>\n<!ELEMENT w (x, x)>\n<!ELEMENT x EMPTY>\n")
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
// arena past maxRetainedMemo and one that grows the host memo past
// maxRetainedHosts, each followed by a small document on the same
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

	w := New(core.MustCompile(d, "t", core.Options{}))
	run(w, children("t", 200, x))
	if len(w.hosts) <= maxRetainedHosts {
		t.Fatalf("200 children of <t> stored %d host verdicts, want past %d", len(w.hosts), maxRetainedHosts)
	}
	grown := fmt.Sprintf("%p", w.hosts)
	run(w, children("t", 4, x))
	if fmt.Sprintf("%p", w.hosts) == grown {
		t.Error("after a small document the Completer still keeps the oversized host memo")
	}
}
