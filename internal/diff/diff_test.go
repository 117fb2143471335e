package diff_test

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
)

// exampleS is the paper's running example s (Figure 3 completes it with two
// <d> insertions).
const exampleS = `<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`

func completeTracked(t *testing.T, dtdSrc, root, xml string) (*dom.Node, []*dom.Node, *core.Schema) {
	t.Helper()
	d := dtd.MustParse(dtdSrc)
	schema := core.MustCompile(d, root, core.Options{})
	doc, err := dom.Parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	out, nodes, err := complete.New(schema).CompleteTracked(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	return out, nodes, schema
}

func TestComputeFigure3(t *testing.T) {
	out, nodes, _ := completeTracked(t, dtd.Figure1, "r", exampleS)
	d := diff.Compute(out, nodes)
	if d.Inserted != 2 || len(d.Insertions) != 2 {
		t.Fatalf("diff: %+v", d)
	}
	if d.Completed != out.String() {
		t.Error("Completed must be the completed tree's serialization")
	}
	// Figure 3: one <d> inside <b>, one <d> inside <a>; document order puts
	// the <b> interior first.
	first, second := d.Insertions[0], d.Insertions[1]
	if first.Name != "d" || first.Path != "/r/a[0]/b[0]" || first.Index != 0 {
		t.Errorf("first insertion: %+v", first)
	}
	if second.Name != "d" || second.Path != "/r/a[0]" {
		t.Errorf("second insertion: %+v", second)
	}
	if first.Synthesized || second.Synthesized {
		t.Errorf("both <d>s wrap pre-existing content: %+v %+v", first, second)
	}
	// The records address real nodes: resolve each path+index and confirm
	// name match.
	for _, ins := range d.Insertions {
		parent := resolve(t, out, ins.Path)
		if parent == nil || ins.Index >= len(parent.Children) {
			t.Fatalf("unresolvable insertion %+v", ins)
		}
		got := parent.Children[ins.Index]
		if got.Kind != dom.ElementNode || got.Name != ins.Name {
			t.Errorf("insertion %+v resolves to %v <%s>", ins, got.Kind, got.Name)
		}
	}
}

// resolve walks a /name[i] path to the named node.
func resolve(t *testing.T, root *dom.Node, path string) *dom.Node {
	t.Helper()
	segs := strings.Split(strings.Trim(path, "/"), "/")
	if len(segs) == 0 || segs[0] == "" {
		return root
	}
	if want := segs[0]; want != root.Name {
		t.Fatalf("path %q does not start at root <%s>", path, root.Name)
	}
	cur := root
	for _, seg := range segs[1:] {
		name := seg
		occ := 0
		if i := strings.IndexByte(seg, '['); i >= 0 {
			name = seg[:i]
			n, err := strconv.Atoi(strings.TrimSuffix(seg[i+1:], "]"))
			if err != nil {
				t.Fatalf("bad segment %q: %v", seg, err)
			}
			occ = n
		}
		var next *dom.Node
		seen := 0
		for _, ch := range cur.Children {
			if ch.Kind == dom.ElementNode && ch.Name == name {
				if seen == occ {
					next = ch
					break
				}
				seen++
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

func TestComputeAlreadyValid(t *testing.T) {
	valid := `<r><a><c>x</c><d></d></a></r>`
	out, nodes, _ := completeTracked(t, dtd.Figure1, "r", valid)
	d := diff.Compute(out, nodes)
	if d.Inserted != 0 || len(d.Insertions) != 0 {
		t.Fatalf("valid document produced insertions: %+v", d)
	}
	if d.Completed != valid {
		t.Errorf("Completed = %q, want input unchanged", d.Completed)
	}
	if !strings.Contains(d.Summary(), "already valid") {
		t.Errorf("summary: %q", d.Summary())
	}
}

func TestSynthesizedMinimalInstance(t *testing.T) {
	// Model forces a mandatory <c>(c,e) style subtree out of thin air:
	// <a></a> under (b), b EMPTY is trivial; use Figure1's f = (c, e) with a
	// doc missing everything: <r><a><c>x</c></a></r> needs a <d> appended.
	out, nodes, _ := completeTracked(t, dtd.Figure1, "r", `<r><a><c>x</c></a></r>`)
	d := diff.Compute(out, nodes)
	if d.Inserted == 0 {
		t.Fatal("expected insertions")
	}
	for _, ins := range d.Insertions {
		if !ins.Synthesized {
			t.Errorf("insertion %+v hosts no original content; want Synthesized", ins)
		}
	}
}

func TestDiffJSONShape(t *testing.T) {
	out, nodes, _ := completeTracked(t, dtd.Figure1, "r", exampleS)
	d := diff.Compute(out, nodes)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"inserted":2`, `"insertions":[`, `"path":"/r/a[0]/b[0]"`, `"completed":"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %s: %s", want, b)
		}
	}
}
