package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
	"repro/internal/xmltext"
)

// twoTierPair is one schema compiled three ways — with the content-model
// DFA fast path, recognizer-only, and fast but round-tripped through the
// compiled-schema codec — plus the full validator, the ground truth for
// the validity bit.
type twoTierPair struct {
	fast, slow, decoded *Schema
	valid               *validator.Validator
}

func newTwoTierPair(tb testing.TB, d *dtd.DTD, root string, opts Options) twoTierPair {
	tb.Helper()
	v, err := validator.New(d, root)
	if err != nil {
		tb.Fatalf("validator.New(%s): %v", root, err)
	}
	slowOpts := opts
	slowOpts.DisableFastPath = true
	fast := MustCompile(d, root, opts)
	return twoTierPair{fast: fast, slow: MustCompile(d, root, slowOpts), decoded: roundTrip(tb, fast), valid: v}
}

// roundTrip encodes s and decodes it again.
func roundTrip(tb testing.TB, s *Schema) *Schema {
	tb.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := UnmarshalBinary(blob)
	if err != nil {
		tb.Fatal(err)
	}
	return dec
}

// twoTierPairs compiles the fuzz fixture schemas — one per recursion
// class, plus the paper's Figure 1 under each option that changes what
// the checker sees.
func twoTierPairs(tb testing.TB) []twoTierPair {
	tb.Helper()
	fig1 := dtd.MustParse(dtd.Figure1)
	return []twoTierPair{
		newTwoTierPair(tb, fig1, "r", Options{}),
		newTwoTierPair(tb, fig1, "r", Options{IgnoreWhitespaceText: true}),
		newTwoTierPair(tb, fig1, "r", Options{AllowAnyRoot: true}),
		newTwoTierPair(tb, dtd.MustParse(dtd.Play), "play", Options{}),
		newTwoTierPair(tb, dtd.MustParse(dtd.WeakRecursive), "p", Options{}),
		newTwoTierPair(tb, dtd.MustParse(dtd.T2), "a", Options{}),
	}
}

// twoTierCheckers returns the dispatch configurations whose verdicts must
// be indistinguishable: the two-tier fast path, the recognizer-only
// schema, the forced-fallback knob at 0 (replay of an empty prefix) and 2
// (replay of a nonempty DFA-viable prefix), and the decoded schema.
func (p twoTierPair) twoTierCheckers() (names []string, checkers []*StreamChecker) {
	forced0 := p.fast.NewStreamChecker()
	forced0.ForceFallbackAfter(0)
	forced2 := p.fast.NewStreamChecker()
	forced2.ForceFallbackAfter(2)
	return []string{"fast", "slow", "forced0", "forced2", "decoded"},
		[]*StreamChecker{p.fast.NewStreamChecker(), p.slow.NewStreamChecker(), forced0, forced2, p.decoded.NewStreamChecker()}
}

// driveTwoTier feeds xml token-for-token into every checker configuration
// and fails the test at the first event where any verdict (acceptance,
// violation typing, or message) diverges from the recognizer-only
// reference. When the document is potentially valid it also asserts that
// every configuration's validity bit equals the full validator's verdict.
// A document that parses and ends potentially valid or with a violation
// also goes through checkRunTree. It returns the reference's final error.
func driveTwoTier(t *testing.T, p twoTierPair, xml string) error {
	t.Helper()
	err := driveEvents(t, p, xml)
	if err == nil || IsViolation(err) {
		checkRunTree(t, p, xml, err)
	}
	return err
}

// checkRunTree pins RunTree to the token pass: the fast configuration's
// RunTree over xml's parsed tree gives the token verdict and message, and
// on a potentially valid document its validity bit is the validator's.
// ValidTree is the validator's verdict on every such tree, potentially
// valid or not. The five configurations are already pinned to each other
// event by event, so the fast one stands for all.
func checkRunTree(t *testing.T, p twoTierPair, xml string, want error) {
	t.Helper()
	doc, err := dom.Parse(xml)
	if err != nil {
		return
	}
	c := p.fast.NewStreamChecker()
	if got := c.RunTree(doc.Root); !sameVerdict(want, got) {
		t.Fatalf("RunTree over %q: %v, token pass %v", xml, got, want)
	}
	verr := p.valid.Validate(doc.Root)
	if want == nil && c.StrictlyValid() != (verr == nil) {
		t.Fatalf("RunTree over %q: StrictlyValid %v, validator says %v", xml, c.StrictlyValid(), verr)
	}
	if got := c.ValidTree(doc.Root); got != (verr == nil) {
		t.Fatalf("ValidTree over %q: %t, validator says %v", xml, got, verr)
	}
}

// driveEvents is driveTwoTier's token pass.
func driveEvents(t *testing.T, p twoTierPair, xml string) error {
	t.Helper()
	names, checkers := p.twoTierCheckers()
	for _, c := range checkers {
		c.Reset()
	}
	event := 0
	lx := xmltext.NewByteLexer([]byte(xml))
	for {
		tok, lexErr := lx.Next()
		if lexErr != nil {
			return lexErr // RunBytes's verdict too: no checker sees the rest
		}
		if tok == nil {
			break
		}
		event++
		errs := make([]error, len(checkers))
		for i, c := range checkers {
			switch tok.Kind {
			case xmltext.StartTag:
				errs[i] = c.StartElement(tok.Name)
			case xmltext.EndTag:
				errs[i] = c.EndElement(tok.Name)
			case xmltext.Text:
				errs[i] = c.Text(tok.Data)
			}
		}
		for i := range checkers {
			if !sameVerdict(errs[1], errs[i]) {
				t.Fatalf("event %d (%v %q) of %q: %s and %s disagree\n  %s: %v\n  %s: %v",
					event, tok.Kind, tok.Name, xml, names[1], names[i], names[1], errs[1], names[i], errs[i])
			}
		}
		if errs[1] != nil {
			return errs[1]
		}
	}
	closes := make([]error, len(checkers))
	for i, c := range checkers {
		closes[i] = c.Close()
	}
	for i := range checkers {
		if !sameVerdict(closes[1], closes[i]) {
			t.Fatalf("Close of %q: %s and %s disagree\n  %s: %v\n  %s: %v",
				xml, names[1], names[i], names[1], closes[1], names[i], closes[i])
		}
	}
	if closes[1] == nil {
		checkValidBit(t, p, xml, names, checkers)
	}
	return closes[1]
}

// checkValidBit asserts that the validity bit is exact: after a run that
// accepted xml, every checker's StrictlyValid equals the full validator's
// verdict on the parsed tree.
func checkValidBit(t *testing.T, p twoTierPair, xml string, names []string, checkers []*StreamChecker) {
	t.Helper()
	doc, err := dom.Parse(xml)
	if err != nil {
		t.Fatalf("stream accepted unparseable input %q: %v", xml, err)
	}
	verr := p.valid.Validate(doc.Root)
	for i, c := range checkers {
		if got := c.StrictlyValid(); got != (verr == nil) {
			t.Fatalf("%s: StrictlyValid(%q) = %v, validator says %v", names[i], xml, got, verr)
		}
	}
}

// FuzzDFAVsRecognizer differentially fuzzes the two-tier dispatch: the DFA
// fast path, the recognizer-only slow tier, the forced-fallback replay
// path and the decoded schemas must produce identical verdicts
// token-for-token on arbitrary input, across all three recursion classes
// — the invariant that makes the fast path a pure optimization. It also
// pins every configuration's validity bit to the full validator.
func FuzzDFAVsRecognizer(f *testing.F) {
	for _, seed := range []string{
		`<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>`,
		`<r><a><b>A quick brown</b><e></e><c> fox</c> dog</a></r>`,
		`<r><a><c>x</c><d></d></a></r>`,
		`<play><title>t</title><personae><persona>p</persona></personae></play>`,
		`<p>text <b>bold <i>both</i></b> tail</p>`,
		`<a><b></b><b></b></a>`,
		`<a><b></b><b></b><b></b></a>`,
		`<r><a><e></e><e></e></a></r>`,
		`<r>`, `</r>`, `<r></r><r></r>`, `<r><a></b></r>`, `x<r></r>`,
		`<r><!-- c --><?pi d?></r>`, `<r><![CDATA[<a>]]></r>`, ``,
		// The validity rules: whitespace in element content, empty CDATA
		// in EMPTY, comment-split text in element content, and a
		// non-schema root (potentially valid under AllowAnyRoot).
		"<r>\n <a> <c>x</c><d></d></a> </r>",
		`<r><a><c>x</c><d><e><![CDATA[]]></e></d></a></r>`,
		`<r><a><c>x</c><d><e> </e></d></a></r>`,
		`<r><a><c>x</c><d></d></a>t<!-- c -->u</r>`,
		`<r><a> <!-- c --> <c>x</c><d></d></a></r>`,
		`<d><e></e>t</d>`,
	} {
		f.Add(seed)
	}
	pairs := twoTierPairs(f)
	f.Fuzz(func(t *testing.T, xml string) {
		for _, p := range pairs {
			driveTwoTier(t, p, xml)
		}
	})
}

// TestTwoTierDifferentialGenerated runs every checker configuration over
// 1000+ generated documents — valid, tag-stripped (PV by Theorem 2) and
// corrupted, half of them decorated, some rooted at a non-schema element
// — over random DTDs of every recursion class and the fixtures, under all
// three option sets, pinning verdict equality and the exact validity bit
// at scale.
func TestTwoTierDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(1511))
	pairs := twoTierPairs(t)
	optSets := []Options{{}, {IgnoreWhitespaceText: true}, {AllowAnyRoot: true}}
	for _, class := range []gen.DTDClass{gen.ClassNonRecursive, gen.ClassWeak, gen.ClassStrong} {
		for i := 0; i < 3; i++ {
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 6 + rng.Intn(10), Class: class})
			pairs = append(pairs, newTwoTierPair(t, d, "e0", optSets[i]))
		}
	}
	docs, valid := 0, 0
	for _, p := range pairs {
		for i := 0; i < 80; i++ {
			root := p.fast.Root
			if p.fast.Options().AllowAnyRoot && i%5 == 0 {
				root = p.fast.DTD.Order[rng.Intn(len(p.fast.DTD.Order))]
			}
			doc := gen.GenValid(rng, p.fast.DTD, root, gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
			switch i % 4 {
			case 1:
				gen.Strip(rng, doc, 0.3)
			case 2:
				gen.StripAll(doc)
			case 3:
				gen.Corrupt(rng, p.fast.DTD, doc)
			}
			xml := doc.String()
			if i%8 >= 4 {
				xml = gen.Decorate(rng, xml)
			}
			if driveTwoTier(t, p, xml) == nil && p.valid.ValidateString(xml) == nil {
				valid++
			}
			docs++
		}
	}
	if docs < 1000 || valid < docs/10 {
		t.Fatalf("differential corpus too small: %d documents (%d valid), want >= 1000 (10%% valid)", docs, valid)
	}
}

// TestRunTreeHandBuilt runs RunTree over trees built node by node,
// including shapes the parser never builds (adjacent and empty text
// nodes). RunTree must agree with RunBytes over the tree's serialization
// on verdict, message and validity bit, and with the tree oracle
// (CheckDocument, then validator.Validate) on the verdict bits; ValidTree
// must be the validator's verdict.
func TestRunTreeHandBuilt(t *testing.T) {
	fig1 := dtd.MustParse(dtd.Figure1)
	el, text := dom.NewElement, dom.NewText
	comment := func(data string) *dom.Node { return &dom.Node{Kind: dom.CommentNode, Data: data} }
	ws := Options{IgnoreWhitespaceText: true}
	cases := []struct {
		name      string
		opts      Options
		root      *dom.Node
		pv, valid bool
	}{
		{"adjacent-text", Options{},
			el("r", el("a", el("c", text("foo"), text("bar")), el("d"))), true, true},
		{"adjacent-text-element-content", Options{},
			el("r", el("a", text("foo"), text("bar"), el("d"))), true, false},
		{"empty-text", Options{},
			el("r", el("a", text(""), el("c", text("")), text(""), el("d"))), true, true},
		{"comment-between-texts", Options{},
			el("r", el("a", el("c", text("foo"), comment("x"), text("bar")), el("d"))), true, true},
		{"comment-between-texts-element-content", Options{},
			el("r", el("a", text("foo"), comment("x"), text("bar"), el("d"))), true, false},
		{"whitespace-element-content", Options{},
			el("r", text("\n "), el("a", el("c", text("x")), el("d")), text("\n")), true, true},
		{"whitespace-element-content-ignored", ws,
			el("r", text("\n "), el("a", el("c", text("x")), el("d")), text("\n")), true, true},
		// Valid, but the space after <d> is a σ that <b> (d | f) cannot
		// take, so only ValidTree sees the validity.
		{"whitespace-after-bounded-model", Options{},
			el("r", el("a", el("b", el("d", text("x")), text(" ")), el("c", text("y")), el("d"))), false, false},
		{"whitespace-in-empty", Options{},
			el("r", el("a", el("c", text("x")), el("d", el("e", text(" "))))), false, false},
		{"whitespace-in-empty-ignored", ws,
			el("r", el("a", el("c", text("x")), el("d", el("e", text(" "))))), false, false},
		{"undeclared-element", Options{},
			el("r", el("a", el("zz"))), false, false},
		{"non-schema-root", Options{},
			el("d", el("e"), text("t")), false, false},
		{"non-schema-root-any-root", Options{AllowAnyRoot: true},
			el("d", el("e"), text("t")), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MustCompile(fig1, "r", tc.opts)
			v := validator.MustNew(fig1, "r")
			c := s.NewStreamChecker()
			err := c.RunTree(tc.root)
			if err != nil && !IsViolation(err) {
				t.Fatalf("RunTree: %v is not a violation", err)
			}
			if pv, valid := err == nil, c.StrictlyValid(); pv != tc.pv || valid != tc.valid {
				t.Errorf("RunTree: pv=%t valid=%t (%v), want pv=%t valid=%t", pv, valid, err, tc.pv, tc.valid)
			}
			xml := tc.root.String()
			b := s.NewStreamChecker()
			if berr := b.RunBytes([]byte(xml)); !sameVerdict(berr, err) || b.StrictlyValid() != c.StrictlyValid() {
				t.Errorf("RunBytes over %q: %v valid=%t; RunTree %v valid=%t", xml, berr, b.StrictlyValid(), err, c.StrictlyValid())
			}
			treePV := s.CheckDocument(tc.root) == nil
			treeValid := treePV && v.Validate(tc.root) == nil
			if treePV != (err == nil) || treeValid != c.StrictlyValid() {
				t.Errorf("tree oracle: pv=%t valid=%t; RunTree %v valid=%t", treePV, treeValid, err, c.StrictlyValid())
			}
			if got, verr := c.ValidTree(tc.root), v.Validate(tc.root); got != (verr == nil) {
				t.Errorf("ValidTree: %t, validator says %v", got, verr)
			}
		})
	}
}

// TestTwoTierStateCappedModel pins the position-set lane: an element whose
// content model determinizes past the state cap gets no DFA, and its
// validity bit must still equal the validator's, on the compiled and the
// decoded schema alike.
func TestTwoTierStateCappedModel(t *testing.T) {
	model := "(a|b)*, a" + strings.Repeat(", (a|b)", 10)
	d := dtd.MustParse("<!ELEMENT r (" + model + ")>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>")
	p := newTwoTierPair(t, d, "r", Options{})
	if p.fast.fastMachine(p.fast.SymbolID([]byte("r"))) != nil {
		t.Fatalf("model %s determinized under the state cap; the test needs one over it", model)
	}
	rng := rand.New(rand.NewSource(3))
	valid := 0
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		b.WriteString("<r>")
		for n := rng.Intn(20); n > 0; n-- {
			b.WriteString([]string{"<a/>", "<b/>"}[rng.Intn(2)])
		}
		b.WriteString("</r>")
		if driveTwoTier(t, p, b.String()) != nil {
			t.Fatalf("%s: not potentially valid", b.String())
		}
		if p.valid.ValidateString(b.String()) == nil {
			valid++
		}
	}
	if valid < 300 {
		t.Fatalf("only %d of 3000 sequences valid; the corpus misses the accepting side", valid)
	}
}

// TestTwoTierStrictMatchesValidator pins the validity bit's corners where
// potential validity sees nothing wrong: empty CDATA (no tree node),
// non-schema roots under AllowAnyRoot, and incomplete-but-completable
// content. Whitespace inside an EMPTY element is the one corner where both
// fail, IgnoreWhitespaceText or not: no insertion makes it valid.
func TestTwoTierStrictMatchesValidator(t *testing.T) {
	fig1 := dtd.MustParse(dtd.Figure1)
	cases := []struct {
		name   string
		dtdSrc *dtd.DTD
		root   string
		opts   Options
		xml    string
		strict bool
		notPV  bool
	}{
		{"valid-doc-strict", fig1, "r", Options{},
			`<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>`, true, false},
		{"incomplete-not-strict", fig1, "r", Options{},
			`<r></r>`, false, false}, // PV (completable) but not a complete word of (a+)
		{"empty-elem-with-ws", fig1, "r", Options{IgnoreWhitespaceText: true},
			`<r><a><b><d>t</d></b><c>y</c><d><e> </e></d></a></r>`, false, true}, // EMPTY admits no character data, whitespace included
		{"empty-elem-cdata", fig1, "r", Options{},
			`<r><a><b><d>t</d></b><c>y</c><d><e><![CDATA[]]></e></d></a></r>`, true, false}, // empty CDATA makes no text node
		{"anyroot-nonschema-root", fig1, "r", Options{AllowAnyRoot: true},
			`<d><e></e>t</d>`, false, false}, // stream accepts any declared root; the validator still pins <r>
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MustCompile(tc.dtdSrc, tc.root, tc.opts)
			c := s.NewStreamChecker()
			err := c.Run(tc.xml)
			var v *ViolationError
			if tc.notPV && !errors.As(err, &v) {
				t.Fatalf("Run(%q) = %v, want a violation", tc.xml, err)
			}
			if !tc.notPV && err != nil {
				t.Fatalf("Run(%q): %v", tc.xml, err)
			}
			if got := c.StrictlyValid(); got != tc.strict {
				t.Fatalf("StrictlyValid(%q) = %v, want %v", tc.xml, got, tc.strict)
			}
			if c.StrictlyValid() {
				v, err := validator.New(tc.dtdSrc, tc.root)
				if err != nil {
					t.Fatal(err)
				}
				doc := dom.MustParse(tc.xml)
				if verr := v.Validate(doc.Root); verr != nil {
					t.Fatalf("strict claim contradicts validator on %q: %v", tc.xml, verr)
				}
			}
		})
	}
}

// TestTwoTierFastPathStats pins the hit/fallback accounting the engine
// aggregates into pv_engine_fast_path_* metrics.
func TestTwoTierFastPathStats(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.Figure1), "r", Options{})
	c := s.NewStreamChecker()

	// Fully valid: every element settles on its DFA lane.
	if err := c.Run(`<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>`); err != nil {
		t.Fatal(err)
	}
	hits, fallbacks := c.FastPathStats()
	if hits != 7 || fallbacks != 0 {
		t.Fatalf("valid doc: hits=%d fallbacks=%d, want 7/0", hits, fallbacks)
	}
	if !c.StrictlyValid() {
		t.Fatal("valid doc not flagged strictly valid")
	}

	// <a> with children (e, e): the DFA for (b?, (c | f), d) dies at the
	// first <e>, so <a> falls back; ancestors and siblings keep their lanes.
	if err := c.Run(`<r><a><e></e><e></e></a></r>`); err != nil {
		t.Fatal(err)
	}
	hits, fallbacks = c.FastPathStats()
	if fallbacks != 1 {
		t.Fatalf("fallback doc: fallbacks=%d, want 1 (hits=%d)", fallbacks, hits)
	}
	if hits != 3 { // r, e, e stay on their lanes
		t.Fatalf("fallback doc: hits=%d, want 3", hits)
	}
	if c.StrictlyValid() {
		t.Fatal("fallback doc must not claim strict validity")
	}

	// Recognizer-only compilation never touches the fast path; its
	// position-set lanes still decide validity.
	slow := MustCompile(dtd.MustParse(dtd.Figure1), "r", Options{DisableFastPath: true})
	sc := slow.NewStreamChecker()
	if err := sc.Run(`<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>`); err != nil {
		t.Fatal(err)
	}
	hits, fallbacks = sc.FastPathStats()
	if hits != 0 || fallbacks != 0 {
		t.Fatalf("slow schema: hits=%d fallbacks=%d, want 0/0", hits, fallbacks)
	}
	if !sc.StrictlyValid() {
		t.Fatal("slow schema: valid doc not flagged strictly valid")
	}
}

// TestTwoTierConcurrentSharedDFA runs many checkers over one shared
// compiled schema (hence one shared set of DFA tables) from concurrent
// goroutines — the engine's deployment shape. Run under -race this pins
// that the tables are read-only after compilation.
func TestTwoTierConcurrentSharedDFA(t *testing.T) {
	s := MustCompile(dtd.MustParse(dtd.Play), "play", Options{})
	rng := rand.New(rand.NewSource(7))
	var docs []string
	var want []bool // potential validity per doc
	for i := 0; i < 32; i++ {
		doc := gen.GenValid(rng, s.DTD, "play", gen.DocOptions{MaxDepth: 6, MaxRepeat: 3})
		if i%3 == 1 {
			gen.Strip(rng, doc, 0.4)
		}
		if i%3 == 2 {
			gen.Corrupt(rng, s.DTD, doc)
		}
		xml := doc.String()
		docs = append(docs, xml)
		want = append(want, s.CheckStream(xml) == nil)
	}
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.NewStreamChecker()
			for round := 0; round < 8; round++ {
				for i, xml := range docs {
					got := c.Run(xml) == nil
					if got != want[i] {
						errc <- fmt.Errorf("worker %d round %d doc %d: verdict %v, want %v", w, round, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
