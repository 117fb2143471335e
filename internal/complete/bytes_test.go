package complete

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
	"repro/internal/xmltext"
)

// treeOracle completes src on the tree path: parse, CompleteInPlace,
// document-level AppendXML and diff.ComputeDoc, the path the byte path
// replaces on the server.
func treeOracle(c *Completer, src string) (out string, valid bool, d *diff.Diff, err error) {
	doc, err := dom.Parse(src)
	if err != nil {
		return "", false, nil, err
	}
	nodes, valid, err := c.CompleteInPlace(doc.Root)
	if err != nil {
		return "", false, nil, err
	}
	out = string(doc.AppendXML(nil))
	return out, valid, diff.ComputeDoc(doc.Root, nodes, out), nil
}

// checkBytesVsTree holds CompleteBytes on c to the tree oracle on oracle
// (a second Completer for the same schema): the same output, inserted
// count, valid bit and records, or the same error text and kind.
func checkBytesVsTree(t *testing.T, c, oracle *Completer, label, src string) {
	t.Helper()
	got, gotErr := c.CompleteBytes([]byte(src), true)
	want, valid, d, err := treeOracle(oracle, src)
	if err != nil || gotErr != nil {
		if err == nil || gotErr == nil || gotErr.Error() != err.Error() || core.IsViolation(gotErr) != core.IsViolation(err) {
			t.Fatalf("%s: byte path error %v, tree path %v\n%s", label, gotErr, err, src)
		}
		return
	}
	if string(got.Output) != want || got.Inserted != d.Inserted || got.AlreadyValid != valid {
		t.Fatalf("%s: byte path gives %d insertions (valid %t):\n%s\ntree path %d (valid %t):\n%s\ninput:\n%s",
			label, got.Inserted, got.AlreadyValid, got.Output, d.Inserted, valid, want, src)
	}
	if len(got.Insertions) != len(d.Insertions) {
		t.Fatalf("%s: %d records, tree path %d\n%v\n%v", label, len(got.Insertions), len(d.Insertions), got.Insertions, d.Insertions)
	}
	for k := range d.Insertions {
		if got.Insertions[k] != d.Insertions[k] {
			t.Fatalf("%s: record %d is %+v, tree path %+v\ninput:\n%s\noutput:\n%s", label, k, got.Insertions[k], d.Insertions[k], src, want)
		}
	}
}

// checkDecorated is the decorated oracle on the byte path. For a document
// the checker calls potentially valid: completion succeeds, the output
// passes the validator, and deleting the inserted tags gives back the
// input byte for byte (checkSplice). A document it calls not potentially
// valid fails with a violation, unless the validator accepts it, which
// then comes back as itself; a malformed one fails with the parser's
// error.
func checkDecorated(t *testing.T, c *Completer, val *validator.Validator, label, src string) {
	t.Helper()
	got, err := c.CompleteBytes([]byte(src), true)
	doc, perr := dom.Parse(src)
	if perr != nil {
		if err == nil || err.Error() != perr.Error() {
			t.Fatalf("%s: byte path gives %v on a malformed document, the parser %v\n%s", label, err, perr, src)
		}
		return
	}
	verdict := c.schema.NewStreamChecker().RunBytes([]byte(src))
	switch {
	case verdict != nil && err == nil:
		if !got.AlreadyValid || string(got.Output) != src || val.Validate(doc.Root) != nil {
			t.Fatalf("%s: the checker says %v, yet completion gives (valid %t):\n%s\ninput:\n%s", label, verdict, got.AlreadyValid, got.Output, src)
		}
		return
	case verdict != nil:
		if !core.IsViolation(err) {
			t.Fatalf("%s: not potentially valid (%v), completion fails with %v", label, verdict, err)
		}
		return
	case err != nil:
		t.Fatalf("%s: potentially valid, completion fails: %v\n%s", label, err, src)
	}
	out := string(got.Output)
	if got.AlreadyValid != (val.Validate(doc.Root) == nil) {
		t.Fatalf("%s: AlreadyValid %t, the validator %v\n%s", label, got.AlreadyValid, val.Validate(doc.Root), src)
	}
	done, err := dom.Parse(out)
	if err != nil {
		t.Fatalf("%s: the completion does not parse: %v\n%s", label, err, out)
	}
	if err := val.Validate(done.Root); err != nil {
		t.Fatalf("%s: completion invalid: %v\ninput:\n%s\noutput:\n%s", label, err, src, out)
	}
	checkSplice(t, label, src, out, got.Inserted)
	checkRecords(t, label, doc, done, got.Insertions)
}

// checkRecords checks insertion records against the completed tree done:
// each one addresses an element of its name, and unwrapping them, last
// first, gives back the input's tree doc.
func checkRecords(t *testing.T, label string, doc, done *dom.Document, recs []diff.Insertion) {
	t.Helper()
	nodes := make([]*dom.Node, len(recs))
	for k, r := range recs {
		parent := done.Root
		segs := strings.Split(r.Path, "/")[1:]
		if segs[0] != parent.Name {
			t.Fatalf("%s: record %+v: the root is <%s>", label, r, parent.Name)
		}
		for _, seg := range segs[1:] {
			name, occ, _ := strings.Cut(strings.TrimSuffix(seg, "]"), "[")
			n, err := strconv.Atoi(occ)
			if err != nil {
				t.Fatalf("%s: record %+v: %v", label, r, err)
			}
			var next *dom.Node
			for _, ch := range parent.Children {
				if ch.Kind == dom.ElementNode && ch.Name == name {
					if n == 0 {
						next = ch
						break
					}
					n--
				}
			}
			if next == nil {
				t.Fatalf("%s: record %+v: no %s in <%s>", label, r, seg, parent.Name)
			}
			parent = next
		}
		if r.Index >= len(parent.Children) || parent.Children[r.Index].Kind != dom.ElementNode || parent.Children[r.Index].Name != r.Name {
			t.Fatalf("%s: record %+v does not address a <%s>\n%s", label, r, r.Name, done.Root)
		}
		nodes[k] = parent.Children[r.Index]
	}
	for k := len(nodes) - 1; k >= 0; k-- {
		nodes[k].Unwrap()
	}
	if got, want := done.Root.String(), doc.Root.String(); got != want {
		t.Fatalf("%s: unwrapping the records gives\n%s\nnot the input's tree\n%s", label, got, want)
	}
}

// checkSplice checks that out is in with inserted elements' tags added and
// nothing else: lexing both, every token of in appears in out in order
// with its own bytes, and each token of out in between is a bare start or
// end tag, inserted of each kind. The one rewrite allowed is an
// empty-element tag <x/> of in written as <x> with a matching </x>.
func checkSplice(t *testing.T, label, in, out string, inserted int) {
	t.Helper()
	ti, err := xmltext.Tokenize(in)
	if err != nil {
		t.Fatal(err)
	}
	to, err := xmltext.Tokenize(out)
	if err != nil {
		t.Fatal(err)
	}
	raw := func(src string, tok xmltext.Token) string { return src[tok.Pos.Offset:tok.End] }
	k, starts, ends := 0, 0, 0
	for _, o := range to {
		if k < len(ti) {
			i := ti[k]
			same := raw(in, i) == raw(out, o) && i.Kind == o.Kind
			if i.Kind == xmltext.StartTag && i.SelfClose && o.Kind == xmltext.StartTag && !o.SelfClose {
				r := raw(in, i)
				same = r[:len(r)-2]+">" == raw(out, o)
			}
			if i.Kind == xmltext.EndTag && i.Pos.Offset == i.End { // the end of <x/>
				same = o.Kind == xmltext.EndTag && o.Name == i.Name && (o.Pos.Offset == o.End || raw(out, o) == "</"+o.Name+">")
			}
			if same {
				k++
				continue
			}
		}
		switch {
		case o.Kind == xmltext.StartTag && len(o.Attrs) == 0 && !o.SelfClose && raw(out, o) == "<"+o.Name+">":
			starts++
		case o.Kind == xmltext.EndTag && raw(out, o) == "</"+o.Name+">":
			ends++
		default:
			t.Fatalf("%s: the output's %s %q at offset %d is neither input nor an inserted tag\ninput:\n%s\noutput:\n%s", label, o.Kind, raw(out, o), o.Pos.Offset, in, out)
		}
	}
	if k != len(ti) || starts != inserted || ends != inserted {
		t.Fatalf("%s: %d of %d input tokens kept, %d start and %d end tags inserted, want %d\ninput:\n%s\noutput:\n%s", label, k, len(ti), starts, ends, inserted, in, out)
	}
}

// undecorated reports whether a golden-corpus document is free of the
// decorate helper's comments and whitespace.
func undecorated(src string) bool {
	return !strings.Contains(src, "<!--") && !strings.Contains(src, "\n")
}

// TestCompleteBytesGoldenCorpus holds the byte path to the tree oracle on
// every undecorated golden-corpus document.
func TestCompleteBytesGoldenCorpus(t *testing.T) {
	n := 0
	for _, g := range goldenCorpus() {
		for pi, part := range g.parts {
			c, oracle := New(part.schema), New(part.schema)
			for k, src := range part.docs {
				if undecorated(src) {
					checkBytesVsTree(t, c, oracle, fmt.Sprintf("%s part %d doc %d", g.name, pi, k), src)
					n++
				}
			}
		}
	}
	t.Logf("%d undecorated golden documents", n)
	if n < 1000 {
		t.Fatalf("only %d undecorated golden documents", n)
	}
}

// TestCompleteBytesServiceCorpus holds the byte path to the tree oracle on
// the complete_batch mix, valid documents included.
func TestCompleteBytesServiceCorpus(t *testing.T) {
	oracles := map[*Completer]*Completer{}
	for k, d := range serviceDocs(48) {
		if oracles[d.c] == nil {
			oracles[d.c] = New(d.c.schema)
		}
		checkBytesVsTree(t, d.c, oracles[d.c], fmt.Sprintf("doc %d", k), d.src)
	}
}

// decoratedCorpus draws stripped documents, decorated by gen.Decorate,
// for a schema: n documents, stripped at the given fractions.
func decoratedCorpus(rng *rand.Rand, d *dtd.DTD, root string, n int, opts gen.DocOptions, fractions []float64) []string {
	out := make([]string, 0, n)
	for k := 0; k < n; k++ {
		doc := gen.GenValid(rng, d, root, opts)
		gen.Strip(rng, doc, fractions[k%len(fractions)])
		out = append(out, gen.Decorate(rng, doc.String()))
	}
	return out
}

// TestCompleteBytesDecorated runs the decorated oracle (checkDecorated)
// over decorated stripped documents: the paper's Figure 1, Play, Article,
// TEI-Lite and random DTDs of all three recursion classes.
func TestCompleteBytesDecorated(t *testing.T) {
	run := func(name string, d *dtd.DTD, root string, opts core.Options, docs []string) int {
		schema := core.MustCompile(d, root, opts)
		c, val := New(schema), validator.MustNew(d, root)
		completed := 0
		for k, src := range docs {
			checkDecorated(t, c, val, fmt.Sprintf("%s doc %d", name, k), src)
			if schema.NewStreamChecker().Run(src) == nil {
				completed++
			}
		}
		return completed
	}
	completed := 0
	for i, fix := range []struct {
		name, src, root string
		n               int
		opts            gen.DocOptions
	}{
		{"figure1", dtd.Figure1, "r", 240, gen.DocOptions{MaxDepth: 8, MaxRepeat: 4}},
		{"play", dtd.Play, "play", 120, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}},
		{"article", dtd.Article, "article", 60, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}},
		{"tei-lite", dtd.TEILite, "TEI", 12, gen.DocOptions{MaxDepth: 5, MaxRepeat: 2}},
	} {
		d := dtd.MustParse(fix.src)
		rng := rand.New(rand.NewSource(int64(i)*104729 + 5))
		docs := decoratedCorpus(rng, d, fix.root, fix.n, fix.opts, []float64{0.2, 0.5, 0.8})
		completed += run(fix.name, d, fix.root, core.Options{}, docs)
	}
	for class := gen.ClassNonRecursive; class <= gen.ClassStrong; class++ {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*37 + int64(class)))
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 5 + int(seed%6), Class: class})
			docs := decoratedCorpus(rng, d, "e0", 6, gen.DocOptions{MaxDepth: 5, MaxRepeat: 2}, []float64{0.4, 0.7})
			completed += run(fmt.Sprintf("class %d seed %d", class, seed), d, "e0", core.Options{MaxDepth: 6}, docs)
		}
	}
	t.Logf("%d decorated documents potentially valid", completed)
	if completed < 400 {
		t.Fatalf("only %d decorated documents are potentially valid", completed)
	}
}

// TestCompleteBytesDecorations pins where decorations go: a comment
// between items that one wrapper takes stays between them (the tree path
// drops it), text that a comment or PI splits is one item, as the checker
// reads it (the tree path finds no embedding), and an empty-element tag
// is rewritten only when it receives content.
func TestCompleteBytesDecorations(t *testing.T) {
	c, _ := fig1Completer(t)
	for _, tc := range []struct{ in, want string }{
		{`<r><a><c>x</c>tail<!-- lost --><e></e></a></r>`, `<r><a><c>x</c><d>tail<!-- lost --><e></e></d></a></r>`},
		{`<r><a><c>foo<!--x-->bar</c></a></r>`, `<r><a><c>foo<!--x-->bar</c><d></d></a></r>`},
		{`<r><a><c>foo<?p x?>bar</c></a></r>`, `<r><a><c>foo<?p x?>bar</c><d></d></a></r>`},
		{`<r><a><c/><e/></a></r>`, `<r><a><c/><d><e/></d></a></r>`},
		{`<r><a/></r>`, `<r><a><b><d></d></b><c></c><d></d></a></r>`},
		{`<r/>`, `<r><a><c></c><d></d></a></r>`},
		{`<?xml version='1.0'?>` + "\n<r>\n <a><c>&lt;x&#x41;<![CDATA[<y>]]></c></a>\n</r>\n",
			`<?xml version='1.0'?>` + "\n<r>\n <a><c>&lt;x&#x41;<![CDATA[<y>]]></c><d></d></a>\n</r>\n"},
	} {
		got, err := c.CompleteBytes([]byte(tc.in), true)
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if string(got.Output) != tc.want {
			t.Errorf("%s completes to\n%s\nwant\n%s", tc.in, got.Output, tc.want)
		}
		checkSplice(t, tc.in, tc.in, string(got.Output), got.Inserted)
		checkRecords(t, tc.in, dom.MustParse(tc.in), dom.MustParse(string(got.Output)), got.Insertions)
	}
}

// TestCompleteBytesMalformed: a malformed document fails with the tree
// parser's error, also when a violation comes first or the checker would
// name the problem first, and the Completer stays usable.
func TestCompleteBytesMalformed(t *testing.T) {
	c, _ := fig1Completer(t)
	for _, src := range []string{
		`<r><a><b>x</b><e></e><c>y</c></a></r><r></r>`, // not PV, then a second root
		`<r><x></x></r`,                 // undeclared element, then a lexer error
		`<r><a></b></a></r>`,            // mismatched end tag
		`</r>`,                          // end tag with nothing open
		`text<r></r>`,                   // character data before the root
		`<r></r>tail`,                   // after it
		`<r><a>`,                        // unclosed
		``,                              // no root
		`<!-- only -->`,                 // no root either
		`<r><a><c>&bogus;</c></a></r>`,  // unknown entity
		`<q><a></a></q><q></q>`,         // wrong root, then a second one
		`<r><a><e/></a><r></r></r></r>`, // an extra end tag
	} {
		_, want := dom.Parse(src)
		if want == nil {
			t.Fatalf("%q parses", src)
		}
		if _, err := c.CompleteBytes([]byte(src), true); err == nil || err.Error() != want.Error() || core.IsViolation(err) {
			t.Errorf("%q: byte path error %v, parser %v", src, err, want)
		}
	}
	checkBytesVsTree(t, c, New(c.schema), "after malformed documents", `<r><a><e></e></a></r>`)
}

// TestCompleteBytesValidInput: a valid document and one the validator
// accepts with whitespace in element content come back as themselves.
func TestCompleteBytesValidInput(t *testing.T) {
	c, _ := fig1Completer(t)
	for _, src := range []string{
		`<r><a><b><d>x</d></b><c>y</c><d>z<e/></d></a></r>`,
		`<r><a><b><d>x</d> </b><c>y</c><d></d></a></r>`,
		"<!DOCTYPE r>\n<r>\n  <a><c/><d/></a>\n</r>\n<!-- tail -->",
	} {
		got, err := c.CompleteBytes([]byte(src), true)
		if err != nil || !got.AlreadyValid || got.Inserted != 0 || got.Insertions != nil || string(got.Output) != src {
			t.Errorf("%q: %+v, %v", src, got, err)
		}
	}
}

// TestCompleteBytesRetention: a Completer keeps no reference to its
// input or to the records once a call returns, also after a malformed
// document, drops tables past their bounds, and completes a small
// document after a large one as a fresh Completer does.
func TestCompleteBytesRetention(t *testing.T) {
	d := scratchDTD()
	c := New(core.MustCompile(d, "u", core.Options{}))
	big := children("u", 70000, func(int) string { return "x" })
	for _, src := range []string{big, big[:len(big)-2]} { // the second is unclosed
		buf := []byte(src)
		freed := make(chan struct{})
		runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
		got, err := c.CompleteBytes(buf, true)
		if (err == nil) != (len(src) == len(big)) || (err == nil && got.Inserted == 0) {
			t.Fatalf("%d bytes: %d insertions, %v", len(src), got.Inserted, err)
		}
		buf, got = nil, Completion{}
		waitFreed(t, freed, "the input")
	}
	if cap(c.itemTable) > maxRetainedTable || cap(c.elTable) > maxRetainedTable || cap(c.steps) > maxRetainedTable || cap(c.out) > maxRetainedOut {
		t.Errorf("after a large document the Completer keeps %d items, %d elements, %d steps and %d output bytes",
			cap(c.itemTable), cap(c.elTable), cap(c.steps), cap(c.out))
	}
	small := children("u", 4, func(int) string { return "x" })
	got, err := c.CompleteBytes([]byte(small), true)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(c.schema).CompleteBytes([]byte(small), true)
	if err != nil || !bytes.Equal(got.Output, fresh.Output) || len(got.Insertions) != len(fresh.Insertions) {
		t.Errorf("reused Completer gives %s, a fresh one %s (%v)", got.Output, fresh.Output, err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(&got.Insertions[0], func(*diff.Insertion) { close(freed) })
	got = Completion{}
	// Reused tables keep one document's size, not the sum of all.
	steps, items := cap(c.steps), cap(c.itemTable)
	for range 200 {
		if _, err := c.CompleteBytes([]byte(small), true); err != nil {
			t.Fatal(err)
		}
	}
	if cap(c.steps) != steps || cap(c.itemTable) != items {
		t.Errorf("200 more completions grew the script from %d to %d entries and the item table from %d to %d",
			steps, cap(c.steps), items, cap(c.itemTable))
	}
	waitFreed(t, freed, "the records")
}

// waitFreed waits for a finalizer to close freed, collecting garbage.
func waitFreed(t *testing.T, freed chan struct{}, what string) {
	t.Helper()
	for range 50 {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("the Completer still references %s", what)
}

// FuzzCompleteBytesVsTree holds CompleteBytes to the tree oracle
// (checkBytesVsTree) on generated stripped documents, under option
// variants: IgnoreWhitespaceText, AllowAnyRoot (with a root drawn from
// the declared elements) and three depth bounds. One input in four is
// decorated by gen.Decorate instead and goes through the decorated oracle
// (checkDecorated). The seed corpus is in testdata/fuzz.
func FuzzCompleteBytesVsTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, class, elements, strip, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: 2 + int(elements%12), Class: gen.DTDClass(class % 3)})
		opts := core.Options{
			IgnoreWhitespaceText: flags&1 != 0,
			AllowAnyRoot:         flags&2 != 0,
			MaxDepth:             []int{6, 2, 4, 8}[flags>>2&3],
		}
		schema, err := core.Compile(d, "e0", opts)
		if err != nil {
			t.Fatalf("generated DTD does not compile: %v", err)
		}
		root := "e0"
		if opts.AllowAnyRoot {
			root = d.Order[rng.Intn(len(d.Order))]
		}
		doc := gen.GenValid(rng, d, root, gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
		gen.Strip(rng, doc, float64(strip)/255)
		src := doc.String()
		if flags>>4&3 != 0 {
			checkBytesVsTree(t, New(schema), New(schema), "generated document", src)
			return
		}
		// The decorated oracle validates against the schema root.
		if opts.AllowAnyRoot {
			opts.AllowAnyRoot = false
			if schema, err = core.Compile(d, "e0", opts); err != nil {
				t.Fatal(err)
			}
			doc = gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
			gen.Strip(rng, doc, float64(strip)/255)
			src = doc.String()
		}
		checkDecorated(t, New(schema), validator.MustNew(d, "e0"), "decorated", gen.Decorate(rng, src))
	})
}

// TestCompleteBytesSteadyStateAllocs pins the byte path's allocations
// after warm-up to what the caller keeps. The stream checker's own
// allocations, those of the recognizers it falls back on, are the same
// as a RunBytes of the document and are subtracted. With the diff off the
// completer adds nothing: the output lives in its buffer. With the diff
// on it adds the records and one string per distinct record path.
func TestCompleteBytesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the pin runs in the non-race CI lane")
	}
	checkers := map[*Completer]*core.StreamChecker{}
	docs := 0
	for k, d := range serviceDocs(8) {
		if d.valid {
			continue
		}
		src := []byte(d.src)
		ck := checkers[d.c]
		if ck == nil {
			ck = d.c.schema.NewStreamChecker()
			checkers[d.c] = ck
		}
		got, err := d.c.CompleteBytes(src, true) // warm up, minimal instances included
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string]bool{}
		for _, r := range got.Insertions {
			paths[r.Path] = true
		}
		ck.RunBytes(src)
		checker := testing.AllocsPerRun(20, func() { ck.RunBytes(src) })
		for _, withDiff := range []bool{false, true} {
			want := checker
			if withDiff {
				want += float64(1 + len(paths))
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := d.c.CompleteBytes(src, withDiff); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != want {
				t.Errorf("doc %d, diff %t: %.0f allocations per completion, want %.0f (the checker's %.0f, %d records on %d paths)",
					k, withDiff, allocs, want, checker, len(got.Insertions), len(paths))
			}
		}
		docs++
	}
	if docs < 8 {
		t.Fatalf("only %d documents need completion", docs)
	}
}
