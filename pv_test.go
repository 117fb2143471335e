package pv

import (
	"strings"
	"testing"
)

const (
	exampleW = `<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>`
	exampleS = `<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`
	exampleE = `<r><a><b><d>A quick brown</d></b><c> fox jumps over a lazy</c><d> dog<e></e></d></a></r>`
)

func TestPublicAPIQuickstart(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	// Example 1, the paper's headline distinction.
	res, err := schema.CheckString(exampleW)
	if err != nil {
		t.Fatal(err)
	}
	if res.PotentiallyValid || res.Valid {
		t.Errorf("w: %+v, want neither valid nor potentially valid", res)
	}
	if !strings.Contains(res.Detail, "not potentially valid") {
		t.Errorf("w detail: %q", res.Detail)
	}
	res, err = schema.CheckString(exampleS)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PotentiallyValid || res.Valid {
		t.Errorf("s: %+v, want potentially valid but not valid", res)
	}
	res, err = schema.CheckString(exampleE)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PotentiallyValid || !res.Valid {
		t.Errorf("extension: %+v, want both", res)
	}
}

func TestSchemaInfoAndClass(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	if schema.Class() != NonRecursive {
		t.Errorf("class = %v", schema.Class())
	}
	info := schema.Info()
	for _, want := range []string{"root <r>", "7 elements", "k=19", "non-recursive"} {
		if !strings.Contains(info, want) {
			t.Errorf("Info() = %q missing %q", info, want)
		}
	}
	if got := MustCompileDTD(T1DTD, "a", Options{}).Class(); got != PVStrongRecursive {
		t.Errorf("T1 class = %v", got)
	}
	if got := MustCompileDTD(InlineDTD, "p", Options{}).Class(); got != PVWeakRecursive {
		t.Errorf("Inline class = %v", got)
	}
}

func TestDTDLintAndAccessors(t *testing.T) {
	d, err := ParseDTD(Figure1DTD)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Names(); len(got) != 7 || got[0] != "r" {
		t.Errorf("Names = %v", got)
	}
	if d.Size() != 19 {
		t.Errorf("Size = %d", d.Size())
	}
	if lint := d.Lint(); len(lint) != 0 {
		t.Errorf("Lint = %v", lint)
	}
	bad, err := ParseDTD(`<!ELEMENT a ((b, c) | (b, d))> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	if lint := bad.Lint(); len(lint) == 0 {
		t.Error("expected determinism lint")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileDTD(`<!ELEMENT`, "a", Options{}); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := CompileDTD(`<!ELEMENT a EMPTY>`, "nope", Options{}); err == nil {
		t.Error("bad root not reported")
	}
}

func TestCheckStream(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	if err := schema.CheckStream(exampleS); err != nil {
		t.Errorf("stream on s: %v", err)
	}
	if err := schema.CheckStream(exampleW); err == nil {
		t.Error("stream on w must fail")
	}
}

func TestValidate(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	if err := schema.ValidateString(exampleE); err != nil {
		t.Errorf("extension must validate: %v", err)
	}
	if err := schema.ValidateString(exampleS); err == nil {
		t.Error("s must not fully validate")
	}
}

func TestReachAPI(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	if !schema.Reachable("a", "e") || schema.Reachable("e", "a") {
		t.Error("Reachable wrong")
	}
	if !schema.CanInsertText("d") || schema.CanInsertText("e") {
		t.Error("CanInsertText wrong")
	}
	if schema.CanInsertText("ghost") {
		t.Error("undeclared element cannot take text")
	}
}

func TestDocumentNavigation(t *testing.T) {
	doc := MustParseDocument(exampleS)
	root := doc.Root()
	if root.Name() != "r" || !root.IsElement() {
		t.Fatal("root wrong")
	}
	b := root.Find("a/b")
	if b == nil || b.Name() != "b" {
		t.Fatal("Find(a/b) failed")
	}
	if got := b.Child(0).Text(); got != "A quick brown" {
		t.Errorf("text = %q", got)
	}
	if b.Parent().Name() != "a" {
		t.Error("Parent wrong")
	}
	if root.Find("a/zzz") != nil {
		t.Error("Find of missing path must be nil")
	}
	if doc.Depth() != 3 {
		t.Errorf("Depth = %d", doc.Depth())
	}
	if !strings.Contains(doc.Content(), "quick brown fox") {
		t.Errorf("Content = %q", doc.Content())
	}
}

func TestGuardedSessionPublicAPI(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	doc := MustParseDocument(`<r>A quick brown fox jumps over a lazy dog</r>`)
	sess, err := schema.NewSession(doc)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	a, err := sess.InsertMarkup(root, 0, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Mark up the phrase as in Example 1's s: b around the text, then try
	// the Example-1-w mistake.
	if _, err := sess.InsertMarkup(a, 0, 1, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.InsertText(a, 1, " fox jumps over a lazy"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.InsertMarkup(a, 1, 2, "c"); err != nil {
		t.Fatal(err)
	}
	// The Example 1 mistake — <e/> between the real <b> and the real <c> —
	// is refused by the guard.
	if _, err := sess.InsertMarkup(a, 1, 1, "e"); err == nil {
		t.Error("inserting <e/> between <b> and <c> must be refused (Example 1's w)")
	}
	// The correct placement at the end (Example 1's s) is allowed.
	if _, err := sess.InsertMarkup(a, 2, 2, "e"); err != nil {
		t.Errorf("inserting <e/> at the end must be allowed: %v", err)
	}
	applied, refused := sess.Stats()
	if applied != 5 || refused != 1 {
		t.Errorf("stats = applied %d, refused %d; want 5, 1", applied, refused)
	}
	if err := sess.Undo(); !err {
		t.Error("undo failed")
	}
}

func TestSessionRefusedOnBadStart(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{})
	doc := MustParseDocument(exampleW)
	if _, err := schema.NewSession(doc); err == nil {
		t.Error("session on non-PV document must fail")
	}
}

func TestAllFixturesCompile(t *testing.T) {
	fixtures := []struct{ src, root string }{
		{Figure1DTD, "r"}, {T1DTD, "a"}, {T2DTD, "a"},
		{InlineDTD, "p"}, {PlayDTD, "play"}, {ArticleDTD, "article"},
		{TEILiteDTD, "TEI"},
	}
	for _, f := range fixtures {
		if _, err := CompileDTD(f.src, f.root, Options{}); err != nil {
			t.Errorf("fixture %s: %v", f.root, err)
		}
	}
}

// TestWhitespaceInEmptyIsNotPV: IgnoreWhitespaceText hides whitespace in
// element content but not inside an EMPTY element, where no insertion
// makes it valid; completion then reports the violation.
func TestWhitespaceInEmptyIsNotPV(t *testing.T) {
	schema := MustCompileDTD(Figure1DTD, "r", Options{IgnoreWhitespaceText: true})
	doc := `<r><a><c>x</c><d><e> </e></d></a></r>`
	res, err := schema.CheckString(doc)
	if err != nil || res.PotentiallyValid || res.Valid || !strings.Contains(res.Detail, "<e>") {
		t.Fatalf("CheckString(%s) = %+v, %v; want not potentially valid at <e>", doc, res, err)
	}
	if _, _, err := schema.CompleteBytes([]byte(doc)); err == nil || !strings.Contains(err.Error(), "not potentially valid") {
		t.Errorf("CompleteBytes(%s): %v, want a not-potentially-valid error", doc, err)
	}
	spaced := `<r><a><c>x</c><d> <e></e> </d></a></r>`
	if res, err := schema.CheckString(spaced); err != nil || !res.PotentiallyValid {
		t.Errorf("CheckString(%s) = %+v, %v; want whitespace in element content hidden", spaced, res, err)
	}
}
