// Package diff turns a completion into a structured, serializable record:
// which elements the completer inserted (as path/position/name records
// locating each insertion in the completed document) plus the completed
// document's serialization. A diff describes the outcome of the paper's
// constructive completion (Definition 3); the records pinpoint every
// inserted element for review and tooling. They are not a self-contained
// replayable edit script — a wrapper insertion does not carry the span of
// pre-existing children it absorbed (an applicable patch format is listed
// as ROADMAP future work).
package diff

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dom"
)

// Insertion records one inserted element in the completed document.
type Insertion struct {
	// Path addresses the inserted element's parent in the completed
	// document: "/" for the root's parent, otherwise segments of the form
	// name[i] where i is the index among same-name element siblings, e.g.
	// "/play/act[0]/scene[1]". Paths may traverse other inserted elements;
	// records are emitted in document order, so replaying them in order is
	// well defined.
	Path string `json:"path"`
	// Index is the child slot (among all child nodes of the parent in the
	// completed document) at which the element sits.
	Index int `json:"index"`
	// Name is the inserted element's name.
	Name string `json:"name"`
	// Synthesized reports that the element's whole subtree was invented by
	// the completer (an empty wrapper or a minimal valid instance), as
	// opposed to a wrapper around pre-existing content.
	Synthesized bool `json:"synthesized,omitempty"`
}

// String renders the record as "+<name> at path[index]".
func (i Insertion) String() string {
	return fmt.Sprintf("+<%s> at %s[%d]", i.Name, i.Path, i.Index)
}

// Diff is the structured outcome of one completion.
type Diff struct {
	// Inserted is the number of elements the completion added; zero means
	// the document was already valid.
	Inserted int `json:"inserted"`
	// Insertions lists the inserted elements in document order of the
	// completed document.
	Insertions []Insertion `json:"insertions,omitempty"`
	// Completed is the completed document's serialization.
	Completed string `json:"completed"`
}

// Compute builds the Diff for a completed tree and the inserted element
// nodes reported by the completer (nodes of that same tree). The
// serialization is the completed root's; callers holding a full document
// (prolog/epilog nodes outside the root) should use ComputeDoc with the
// document-level rendering instead. Insertion records come out in
// document order regardless of the completer's creation order.
func Compute(completed *dom.Node, inserted []*dom.Node) *Diff {
	return ComputeDoc(completed, inserted, completed.String())
}

// ComputeDoc is Compute with a caller-supplied serialization of the
// completed document — typically dom.Document.String(), which preserves
// prolog and epilog comment/PI nodes that live outside the root element.
func ComputeDoc(completed *dom.Node, inserted []*dom.Node, serialized string) *Diff {
	d := &Diff{
		Inserted:  len(inserted),
		Completed: serialized,
	}
	if len(inserted) == 0 {
		return d
	}
	set := make(map[*dom.Node]bool, len(inserted))
	for _, n := range inserted {
		set[n] = true
	}
	d.Insertions = Records(completed, set)
	return d
}

// Records walks the completed tree in document order and emits one
// Insertion per element in the inserted set. An element all of whose
// descendant elements are themselves inserted (and which holds no text) is
// marked Synthesized. One walk does it all: the path segments live on one
// stack, a parent's path is rendered only when it has an inserted child,
// and the Synthesized bit is computed bottom-up on the way back.
func Records(completed *dom.Node, inserted map[*dom.Node]bool) []Insertion {
	w := recordWalk{inserted: inserted, path: append([]byte{'/'}, completed.Name...)}
	if inserted[completed] {
		w.out = append(w.out, Insertion{Path: "/", Index: 0, Name: completed.Name})
	}
	if synth := w.walk(completed); inserted[completed] {
		w.out[0].Synthesized = synth
	}
	return w.out
}

// recordWalk is the state of one Records walk.
type recordWalk struct {
	inserted map[*dom.Node]bool
	out      []Insertion
	// path is the path of the element being walked; each level appends its
	// segment and truncates it again on the way back.
	path []byte
	// names counts same-name element siblings: one run of entries per
	// level being walked, truncated when the level is done.
	names []nameCount
}

type nameCount struct {
	name string
	n    int
}

// walk emits the records of n's descendants and reports whether n's
// subtree was invented: n and every descendant element are inserted and
// no text rides inside.
func (w *recordWalk) walk(n *dom.Node) bool {
	synth := w.inserted[n]
	base := len(w.names)
	parent, rendered := "", false
	for idx, ch := range n.Children {
		if ch.Kind == dom.TextNode && ch.Data != "" {
			synth = false
		}
		if ch.Kind != dom.ElementNode {
			continue
		}
		occ := w.occurrence(base, ch.Name)
		rec := -1
		if w.inserted[ch] {
			if !rendered {
				parent, rendered = string(w.path), true
			}
			rec = len(w.out)
			w.out = append(w.out, Insertion{Path: parent, Index: idx, Name: ch.Name})
		}
		mark := len(w.path)
		if mark == 0 || w.path[mark-1] != '/' {
			w.path = append(w.path, '/')
		}
		w.path = append(w.path, ch.Name...)
		w.path = append(w.path, '[')
		w.path = strconv.AppendInt(w.path, int64(occ), 10)
		w.path = append(w.path, ']')
		childSynth := w.walk(ch)
		w.path = w.path[:mark]
		if rec >= 0 {
			w.out[rec].Synthesized = childSynth
		}
		synth = synth && childSynth
	}
	w.names = w.names[:base]
	return synth
}

// occurrence returns how many element siblings named name the current
// level (its counts start at base) has seen before, and counts this one.
func (w *recordWalk) occurrence(base int, name string) int {
	for i := base; i < len(w.names); i++ {
		if w.names[i].name == name {
			w.names[i].n++
			return w.names[i].n - 1
		}
	}
	w.names = append(w.names, nameCount{name: name, n: 1})
	return 0
}

// Summary renders the diff as human-readable lines: one per insertion,
// prefixed by the total. Empty diff summarizes as "already valid".
func (d *Diff) Summary() string {
	if d.Inserted == 0 {
		return "already valid (0 insertions)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d insertion(s):\n", d.Inserted)
	for _, ins := range d.Insertions {
		fmt.Fprintf(&b, "  %s\n", ins)
	}
	return b.String()
}
