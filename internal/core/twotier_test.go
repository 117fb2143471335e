package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/validator"
	"repro/internal/xmltext"
)

// twoTierPair is one schema compiled both ways — with the content-model
// DFA fast path and recognizer-only — plus the full validator, the ground
// truth for the strict-validity shortcut.
type twoTierPair struct {
	fast  *Schema
	slow  *Schema
	valid *validator.Validator
}

func newTwoTierPair(tb testing.TB, d *dtd.DTD, root string) twoTierPair {
	tb.Helper()
	v, err := validator.New(d, root)
	if err != nil {
		tb.Fatalf("validator.New(%s): %v", root, err)
	}
	return twoTierPair{
		fast:  MustCompile(d, root, Options{}),
		slow:  MustCompile(d, root, Options{DisableFastPath: true}),
		valid: v,
	}
}

// twoTierPairs compiles fast/slow twins of the fuzz fixture schemas — one
// per recursion class, plus the paper's Figure 1.
func twoTierPairs(tb testing.TB) []twoTierPair {
	tb.Helper()
	return []twoTierPair{
		newTwoTierPair(tb, dtd.MustParse(dtd.Figure1), "r"),
		newTwoTierPair(tb, dtd.MustParse(dtd.Play), "play"),
		newTwoTierPair(tb, dtd.MustParse(dtd.WeakRecursive), "p"),
		newTwoTierPair(tb, dtd.MustParse(dtd.T2), "a"),
	}
}

// twoTierCheckers returns the four dispatch configurations whose verdicts
// must be indistinguishable: the two-tier fast path, the recognizer-only
// schema, and the forced-fallback knob at 0 (replay of an empty prefix)
// and 2 (replay of a nonempty DFA-viable prefix).
func (p twoTierPair) twoTierCheckers() (names []string, checkers []*StreamChecker) {
	fast := p.fast.NewStreamChecker()
	slow := p.slow.NewStreamChecker()
	forced0 := p.fast.NewStreamChecker()
	forced0.ForceFallbackAfter(0)
	forced2 := p.fast.NewStreamChecker()
	forced2.ForceFallbackAfter(2)
	return []string{"fast", "slow", "forced0", "forced2"},
		[]*StreamChecker{fast, slow, forced0, forced2}
}

// driveTwoTier feeds xml token-for-token into all four checker
// configurations and fails the test at the first event where any verdict
// (acceptance, violation typing, or message) diverges from the
// recognizer-only reference. It returns the reference's final error and
// the fast checker for strict-validity inspection.
func driveTwoTier(t *testing.T, p twoTierPair, xml string) (error, *StreamChecker) {
	t.Helper()
	names, checkers := p.twoTierCheckers()
	for _, c := range checkers {
		c.Reset()
	}
	event := 0
	lx := xmltext.NewByteLexer([]byte(xml))
	for {
		tok, lexErr := lx.Next()
		if lexErr != nil || tok == nil {
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
			return errs[1], checkers[0]
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
	return closes[1], checkers[0]
}

// checkStrictClaim asserts the strict-validity shortcut is sound: whenever
// the fast checker claims StrictlyValid, the full validator must accept
// the parsed tree. (The converse is not required — strict is a
// conservative proof, and false only defers to the tree pass.)
func checkStrictClaim(t *testing.T, p twoTierPair, xml string, fast *StreamChecker) {
	t.Helper()
	if !fast.StrictlyValid() {
		return
	}
	doc, err := dom.Parse(xml)
	if err != nil {
		t.Fatalf("StrictlyValid claimed on unparseable input %q: %v", xml, err)
	}
	if verr := p.valid.Validate(doc.Root); verr != nil {
		t.Fatalf("StrictlyValid claimed but the validator rejects %q: %v", xml, verr)
	}
}

// FuzzDFAVsRecognizer differentially fuzzes the two-tier dispatch: the DFA
// fast path, the recognizer-only slow tier, and the forced-fallback replay
// path must produce identical verdicts token-for-token on arbitrary input,
// across all three recursion classes — the invariant that makes the fast
// path a pure optimization. It also pins the strict-validity shortcut
// against the full validator.
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
	} {
		f.Add(seed)
	}
	pairs := twoTierPairs(f)
	f.Fuzz(func(t *testing.T, xml string) {
		for _, p := range pairs {
			err, fast := driveTwoTier(t, p, xml)
			if err == nil {
				checkStrictClaim(t, p, xml, fast)
			}
		}
	})
}

// TestTwoTierDifferentialGenerated runs the four checker configurations
// over 1000+ generated documents — valid, tag-stripped (PV by Theorem 2),
// and corrupted, over random DTDs of every recursion class and the
// fixtures — pinning verdict equality and strict-shortcut soundness at
// scale.
func TestTwoTierDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(1511))
	pairs := twoTierPairs(t)
	for _, class := range []gen.DTDClass{gen.ClassNonRecursive, gen.ClassWeak, gen.ClassStrong} {
		for i := 0; i < 3; i++ {
			d := gen.RandDTD(rng, gen.DTDOptions{Elements: 6 + rng.Intn(10), Class: class})
			pairs = append(pairs, newTwoTierPair(t, d, "e0"))
		}
	}
	docs := 0
	for _, p := range pairs {
		root := p.fast.Root
		for i := 0; i < 80; i++ {
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
			err, fast := driveTwoTier(t, p, xml)
			if err == nil {
				checkStrictClaim(t, p, xml, fast)
			}
			docs++
		}
	}
	if docs < 1000 {
		t.Fatalf("differential corpus too small: %d documents, want >= 1000", docs)
	}
}

// TestTwoTierStrictMatchesValidator pins the corners where the strict
// shortcut must stand down even though the stream checker sees nothing
// wrong: checker-invisible text inside EMPTY elements, non-schema roots
// under AllowAnyRoot, incomplete-but-completable content, and no-fast-path
// recursion.
func TestTwoTierStrictMatchesValidator(t *testing.T) {
	fig1 := dtd.MustParse(dtd.Figure1)
	cases := []struct {
		name   string
		dtdSrc *dtd.DTD
		root   string
		opts   Options
		xml    string
		strict bool
	}{
		{"valid-doc-strict", fig1, "r", Options{},
			`<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>`, true},
		{"incomplete-not-strict", fig1, "r", Options{},
			`<r></r>`, false}, // PV (completable) but not a complete word of (a+)
		{"empty-elem-with-ws", fig1, "r", Options{IgnoreWhitespaceText: true},
			`<r><a><b><d>t</d></b><c>y</c><d><e> </e></d></a></r>`, false}, // ws inside EMPTY <e> is invisible to the checker, fatal to the validator
		{"empty-elem-cdata", fig1, "r", Options{},
			`<r><a><b><d>t</d></b><c>y</c><d><e><![CDATA[]]></e></d></a></r>`, false},
		{"anyroot-nonschema-root", fig1, "r", Options{AllowAnyRoot: true},
			`<d><e></e>t</d>`, false}, // stream accepts any declared root; the validator still pins <r>
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MustCompile(tc.dtdSrc, tc.root, tc.opts)
			c := s.NewStreamChecker()
			if err := c.Run(tc.xml); err != nil {
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

	// Recognizer-only compilation never touches the fast path.
	slow := MustCompile(dtd.MustParse(dtd.Figure1), "r", Options{DisableFastPath: true})
	sc := slow.NewStreamChecker()
	if err := sc.Run(`<r><a><b><d>t</d></b><c>y</c><d><e></e></d></a></r>`); err != nil {
		t.Fatal(err)
	}
	hits, fallbacks = sc.FastPathStats()
	if hits != 0 || fallbacks != 0 {
		t.Fatalf("slow schema: hits=%d fallbacks=%d, want 0/0", hits, fallbacks)
	}
	if sc.StrictlyValid() {
		t.Fatal("slow schema must never claim strict validity")
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
