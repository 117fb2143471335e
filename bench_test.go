package pv

// testing.B benchmarks, one family per experiment table X1-X6 of
// internal/bench. The cmd/pvbench tool prints the same series as aligned
// tables; these benches expose them to `go test -bench` with allocation
// tracking.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/earley"
	"repro/internal/editor"
	"repro/internal/gen"
	"repro/internal/grammar"
	"repro/internal/validator"
)

// buildPlayDoc generates a stripped play document of roughly n δ_T tokens.
func buildPlayDoc(b *testing.B, target int, strip float64) (*core.Schema, *dom.Node, int) {
	b.Helper()
	d := dtd.MustParse(dtd.Play)
	schema := core.MustCompile(d, "play", core.Options{})
	rng := rand.New(rand.NewSource(1))
	doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8})
	for len(grammar.DeltaT(doc)) < target {
		more := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8})
		for _, c := range more.Children {
			if c.Kind == dom.ElementNode && c.Name == "act" {
				doc.Append(c.Clone())
			}
		}
	}
	if strip > 0 {
		gen.Strip(rng, doc, strip)
	}
	return schema, doc, len(grammar.DeltaT(doc))
}

// BenchmarkPVLinear is X1 (Theorem 4): streaming whole-document check,
// fixed DTD, growing document. ns/op divided by tokens must stay flat.
func BenchmarkPVLinear(b *testing.B) {
	for _, target := range []int{1000, 4000, 16000, 64000} {
		schema, doc, n := buildPlayDoc(b, target, 0.2)
		src := doc.String()
		b.Run(fmt.Sprintf("tokens=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n)) // bytes column ≈ tokens/sec scale
			for i := 0; i < b.N; i++ {
				if err := schema.CheckStream(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPVTree is X1's tree-mode twin: CheckDocument on a parsed tree.
func BenchmarkPVTree(b *testing.B) {
	for _, target := range []int{1000, 16000} {
		schema, doc, n := buildPlayDoc(b, target, 0.2)
		b.Run(fmt.Sprintf("tokens=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := schema.CheckDocument(doc); v != nil {
					b.Fatal(v.Reason)
				}
			}
		})
	}
}

// BenchmarkEarleyBaseline is X2 (Section 3.3): the generic Earley parser on
// G' versus the ECRecognizer on identical inputs.
func BenchmarkEarleyBaseline(b *testing.B) {
	d := dtd.MustParse(dtd.Figure1)
	schema := core.MustCompile(d, "r", core.Options{})
	g, err := grammar.BuildECFG(d, "r", true)
	if err != nil {
		b.Fatal(err)
	}
	ear := earley.New(g.ToCFG())
	rng := rand.New(rand.NewSource(2))
	for _, target := range []int{16, 64, 256} {
		doc := gen.GenValid(rng, d, "r", gen.DocOptions{MaxDepth: 6})
		for len(grammar.DeltaT(doc)) < target {
			more := gen.GenValid(rng, d, "r", gen.DocOptions{MaxDepth: 6})
			for _, c := range more.Children {
				doc.Append(c.Clone())
			}
		}
		gen.Strip(rng, doc, 0.3)
		tokens := grammar.DeltaT(doc)
		b.Run(fmt.Sprintf("earley/tokens=%d", len(tokens)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !ear.Recognize(tokens) {
					b.Fatal("earley rejected")
				}
			}
		})
		b.Run(fmt.Sprintf("ecrecognizer/tokens=%d", len(tokens)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := schema.CheckDocument(doc); v != nil {
					b.Fatal(v.Reason)
				}
			}
		})
	}
}

// BenchmarkDepthBound is X3 (Theorem 4's k^D factor) on the PV-strong T2.
func BenchmarkDepthBound(b *testing.B) {
	d := dtd.MustParse(dtd.T2)
	schema := core.MustCompile(d, "a", core.Options{MaxDepth: 64})
	for _, depth := range []int{4, 8, 16, 32} {
		symbols := make([]core.Symbol, depth+1)
		for i := range symbols {
			symbols[i] = core.Elem("b")
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := schema.NewRecognizerDepth("a", depth)
				if !r.Recognize(symbols) {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// BenchmarkDTDSize is X4: fixed document size, growing random DTD.
func BenchmarkDTDSize(b *testing.B) {
	for _, m := range []int{8, 32, 128} {
		rng := rand.New(rand.NewSource(int64(m)))
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: m, Class: gen.ClassWeak})
		schema := core.MustCompile(d, "e0", core.Options{})
		doc := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
		for len(grammar.DeltaT(doc)) < 4000 {
			more := gen.GenValid(rng, d, "e0", gen.DocOptions{MaxDepth: 8})
			if len(more.Children) == 0 {
				break
			}
			for _, c := range more.Children {
				doc.Append(c.Clone())
			}
		}
		gen.Strip(rng, doc, 0.2)
		b.Run(fmt.Sprintf("m=%d/k=%d", m, d.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := schema.CheckDocument(doc); v != nil {
					b.Fatal(v.Reason)
				}
			}
		})
	}
}

// BenchmarkUpdateGuards is X5 (Theorem 2, Proposition 3): the incremental
// guards versus a full recheck on a large document.
func BenchmarkUpdateGuards(b *testing.B) {
	schema, doc, _ := buildPlayDoc(b, 64000, 0)
	var line, text *dom.Node
	doc.Walk(func(x *dom.Node) bool {
		if line == nil && x.Kind == dom.ElementNode && x.Name == "line" &&
			len(x.Children) > 0 && x.Children[0].Kind == dom.TextNode {
			line = x
		}
		if text == nil && x.Kind == dom.TextNode {
			text = x
		}
		return line == nil || text == nil
	})
	b.Run("text-update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := schema.CanUpdateText(text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := schema.CanInsertText(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("markup-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := schema.CanInsertMarkup(line, 0, 1, "stagedir"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("markup-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := schema.CanDeleteMarkup(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := schema.CheckDocument(doc); v != nil {
				b.Fatal(v.Reason)
			}
		}
	})
}

// BenchmarkStripClosure is X6 (Theorem 2): strip-then-check round trips.
func BenchmarkStripClosure(b *testing.B) {
	d := dtd.MustParse(dtd.Play)
	schema := core.MustCompile(d, "play", core.Options{})
	rng := rand.New(rand.NewSource(4))
	base := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8})
	for _, frac := range []float64{0.3, 0.7} {
		b.Run(fmt.Sprintf("strip=%.1f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc := base.Clone()
				gen.Strip(rng, doc, frac)
				if v := schema.CheckDocument(doc); v != nil {
					b.Fatal("Theorem 2 violated: ", v.Reason)
				}
			}
		})
	}
}

// BenchmarkAblationNaive compares the production recognizer against the
// paper-literal NaiveRecognizer (core.NaiveRecognizer): the soundness and
// completeness corrections cost essentially nothing.
func BenchmarkAblationNaive(b *testing.B) {
	d := dtd.MustParse(dtd.Figure1)
	schema := core.MustCompile(d, "r", core.Options{})
	content := []core.Symbol{
		core.Elem("b"), core.Elem("c"), core.Sigma, core.Elem("e"),
	}
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !schema.NewRecognizer("a").Recognize(content) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("paper-literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !schema.NewNaiveRecognizer("a", 8).Recognize(content) {
				b.Fatal("rejected")
			}
		}
	})
}

// BenchmarkComplete measures extension synthesis (internal/complete) on
// stripped play documents — the constructive Figure 3 operation at scale.
func BenchmarkComplete(b *testing.B) {
	d := dtd.MustParse(dtd.Play)
	schema := core.MustCompile(d, "play", core.Options{})
	comp := complete.New(schema)
	rng := rand.New(rand.NewSource(9))
	base := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8})
	gen.Strip(rng, base, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := comp.Complete(base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEditorSession measures guarded-editing throughput: the paper's
// motivating workload — alternating text and markup operations, each
// pre-checked incrementally.
func BenchmarkEditorSession(b *testing.B) {
	d := dtd.MustParse(dtd.Play)
	schema := core.MustCompile(d, "play", core.Options{})
	rng := rand.New(rand.NewSource(17))
	base := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8})
	gen.Strip(rng, base, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := base.Clone()
		sess, err := editor.NewSession(schema, doc)
		if err != nil {
			b.Fatal(err)
		}
		opRng := rand.New(rand.NewSource(int64(i)))
		names := d.Names()
		for op := 0; op < 50; op++ {
			elems := doc.Elements()
			target := elems[opRng.Intn(len(elems))]
			nc := len(target.Children)
			x := opRng.Intn(nc + 1)
			y := x + opRng.Intn(nc-x+1)
			// Outcomes don't matter; the guard cost does.
			_, _ = sess.InsertMarkup(target, x, y, names[opRng.Intn(len(names))])
			_, _ = sess.InsertText(target, opRng.Intn(len(target.Children)+1), "txt")
		}
	}
}

// BenchmarkCompile measures schema compilation (reachability closure + DAG
// construction) across DTD sizes — the precomputation the paper assumes.
func BenchmarkCompile(b *testing.B) {
	for _, m := range []int{8, 64, 256} {
		rng := rand.New(rand.NewSource(int64(m)))
		d := gen.RandDTD(rng, gen.DTDOptions{Elements: m, Class: gen.ClassWeak})
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(d, "e0", core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParseDocument measures the XML substrate alone (lexer + DOM).
func BenchmarkParseDocument(b *testing.B) {
	_, doc, n := buildPlayDoc(b, 16000, 0)
	src := doc.String()
	b.Run(fmt.Sprintf("tokens=%d", n), func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := dom.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValidate measures the full-validity baseline on a valid
// document, for the X2 comparison's third column.
func BenchmarkValidate(b *testing.B) {
	d := dtd.MustParse(dtd.Play)
	val := validator.MustNew(d, "play")
	_, doc, n := buildPlayDoc(b, 16000, 0)
	b.Run(fmt.Sprintf("tokens=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := val.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
